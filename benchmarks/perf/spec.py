"""The perf ledger's names: workloads, end-to-end metrics, layer metrics.

This module is the single definition the harness, ``--compare``,
``--aa``, the smoke test, and ``BENCHMARK.json`` agree on.  It holds no
code beyond lookups; every later performance or simplicity PR is
accepted or rejected by these names and nothing else.

Three lists:

* :data:`WORKLOADS` - the five named inputs and why each exists.
* :data:`END_TO_END` - the ledger's eight user-visible metrics with
  unit, direction, bound, and the workloads each is defined on.  Times
  are in reference-machine seconds (see ``harness.py``).  The
  ones with ``gated=True`` exist on *every* workload and are never 0,
  so they are the ``end_to_end`` list of ``BENCHMARK.json`` (the
  driver prints every end-to-end metric on every workload).  The
  others are reported in the traced run's list and gated by
  ``run.py --compare`` / ``--aa`` only.
* :data:`PER_LAYER` - busy seconds and counts at each layer boundary
  (layers are the ``repro`` package names), with the end-to-end metric
  and workload each is predicted to move.
"""

from typing import NamedTuple

ALL = (
    "paper_two_week",
    "csv_stream",
    "forensic_sweep",
    "service_http",
    "federation_4site",
)

WORKLOADS = {
    "paper_two_week": (
        "Table IV shape, many small intervals fed one per session.feed(): "
        "sketch.update + detection.score own the wall, 36 alarmed closes "
        "isolate mining/triage/store latency; parse and service idle"
    ),
    "csv_stream": (
        "the text edge: api.stream over a worm-outbreak CSV, per-cell "
        "parsing in flows.io owns the wall; a detection.score change "
        "must not show here, a vectorised parser must"
    ),
    "forensic_sweep": (
        "post-mortem support sweep on the Table II interval plus one "
        "baseline interval: prefilter + encode + mining are ~100% of "
        "wall; detection, parse and store are bypassed"
    ),
    "service_http": (
        "the daemon shape: CSV bodies through ServiceApp POST /ingest on "
        "a 2-pipeline fleet with checkpoints and a mid-run resume; same "
        "data as csv_stream, so the gap is plumbing + checkpoint + store"
    ),
    "federation_4site": (
        "digest path: 4 collectors summarize, JSON wire, federator "
        "merges and detects on snapshots; no rows at the centre, so it "
        "is the bypass workload for every row-path optimisation"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by.
    bound: float
    #: Workloads the metric is defined on.
    workloads: tuple[str, ...]
    #: True when defined (and non-zero) on every workload: the subset
    #: ``BENCHMARK.json`` lists as ``end_to_end``.
    gated: bool
    definition: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL, True,
        "imports + median input generation (and CSV materialisation); "
        "the oracle pass is not included, it runs after timing",
    ),
    EndToEnd(
        "flows_per_s", "flows/s", "higher", 0.25, ALL, True,
        "flows in the workload / wall of a repetition, construction "
        "(session/fleet/collector build, store open) to final ranking "
        "inclusive; the wall is the sum of each op's fastest reading "
        "over the repetitions",
    ),
    EndToEnd(
        "op_ms_p50", "ms", "lower", 0.25, ALL, True,
        "median op latency, each op at its fastest reading over the "
        "repetitions; op = one feed() / one interval closed by "
        "api.stream / one extract_with_metadata trial / one POST "
        "/ingest / one digest decoded + added",
    ),
    EndToEnd(
        "peak_rss_mib", "MiB", "lower", 0.10, ALL, True,
        "ru_maxrss of the workload's process after the timed "
        "repetitions, before the oracle pass",
    ),
    EndToEnd(
        "op_ms_p95", "ms", "lower", 0.25,
        ("paper_two_week", "service_http", "federation_4site"), False,
        "95th percentile of the ops pooled over every repetition "
        "(interval-close and checkpoint stalls); only where >= 10 "
        "samples lie beyond it",
    ),
    EndToEnd(
        "alarm_ms_p50", "ms", "lower", 0.25, ("paper_two_week",), False,
        "median latency of ops that returned >= 1 extraction (each at "
        "its fastest reading): interval close to report available",
    ),
    EndToEnd(
        "wire_bytes_per_flow", "B/flow", "lower", 0.01,
        ("federation_4site",), False,
        "digest JSON bytes / flows; repeats exactly for a seed",
    ),
    EndToEnd(
        "op_fail_ratio", "ratio", "lower", 0.0, ALL, False,
        "failed / attempted: non-200, refused digests, late drops and "
        "every oracle mismatch; any value above 0 rejects",
    ),
)


class Layer(NamedTuple):
    name: str
    unit: str
    #: "<end-to-end metric>@<workload>[,<workload>]" the metric is
    #: predicted to move; every other pairing is predicted not to move.
    moves: str
    better: str = "lower"


_PW, _CS, _FS, _SH, _F4 = ALL

PER_LAYER = (
    # -- demoted end-to-end metrics (not defined on every workload) ----
    Layer("op_ms_p95", "ms", f"itself@{_PW},{_SH},{_F4}"),
    Layer("alarm_ms_p50", "ms", f"itself@{_PW}"),
    Layer("wire_bytes_per_flow", "B/flow", f"itself@{_F4}"),
    # -- set-up split ----------------------------------------------------
    Layer("setup.import_s", "s", "setup_s@all"),
    Layer("setup.generate_s", "s", "setup_s@all"),
    # -- flows -----------------------------------------------------------
    Layer("flows.parse_s", "s", f"flows_per_s@{_CS}"),
    Layer("flows.parse_rows", "count", f"flows_per_s@{_CS}"),
    Layer("flows.parse_body_s", "s", f"flows_per_s,op_ms_p50@{_SH}"),
    Layer("flows.write_csv_s", "s", f"setup_s@{_CS},{_SH}"),
    Layer("flows.window_s", "s", f"flows_per_s@{_PW}"),
    # -- streaming -------------------------------------------------------
    Layer("streaming.assemble_s", "s", f"flows_per_s@{_CS},{_SH}"),
    Layer("streaming.intervals_out", "count", f"flows_per_s@{_CS},{_SH}"),
    Layer("streaming.late_dropped", "count", "op_fail_ratio@all"),
    # -- sketch ----------------------------------------------------------
    Layer(
        "sketch.update_s", "s",
        f"flows_per_s@{_PW},{_CS},{_SH},{_F4};op_ms_p50@{_PW}",
    ),
    Layer("sketch.update_calls", "count", f"flows_per_s@{_PW}"),
    # -- detection -------------------------------------------------------
    Layer("detection.observe_s", "s", f"flows_per_s,op_ms_p50@{_PW}"),
    Layer("detection.score_s", "s", f"flows_per_s,op_ms_p50@{_PW}"),
    Layer("detection.intervals", "count", f"flows_per_s@{_PW}"),
    Layer("detection.alarms", "count", f"alarm_ms_p50@{_PW}"),
    # -- core ------------------------------------------------------------
    Layer("core.prefilter_s", "s", f"flows_per_s@{_FS}"),
    Layer("core.prefilter_in", "count", f"flows_per_s@{_FS}"),
    Layer("core.prefilter_out", "count", f"flows_per_s@{_FS}"),
    Layer("core.triage_s", "s", f"alarm_ms_p50@{_PW}"),
    Layer("core.spine_overhead_s", "s", "flows_per_s@all"),
    # -- mining ----------------------------------------------------------
    Layer("mining.encode_s", "s", f"flows_per_s@{_FS};alarm_ms_p50@{_PW}"),
    Layer("mining.transactions", "count", f"flows_per_s@{_FS}"),
    Layer("mining.mine_s", "s", f"flows_per_s@{_FS};alarm_ms_p50@{_PW}"),
    Layer("mining.mine_calls", "count", f"flows_per_s@{_FS}"),
    Layer("mining.itemsets", "count", f"flows_per_s@{_FS}"),
    Layer("mining.apriori_s", "s", f"flows_per_s@{_FS}"),
    Layer("mining.eclat_s", "s", f"flows_per_s@{_FS}"),
    Layer("mining.fpgrowth_s", "s", f"flows_per_s@{_FS}"),
    Layer("mining.son_s", "s", f"flows_per_s@{_FS}"),
    # -- incidents -------------------------------------------------------
    Layer("incidents.append_s", "s", f"alarm_ms_p50@{_PW}"),
    Layer("incidents.note_s", "s", f"op_ms_p50@{_PW}"),
    Layer("incidents.reports", "count", f"alarm_ms_p50@{_PW}"),
    Layer("incidents.read_s", "s", f"flows_per_s@{_PW},{_SH}"),
    Layer("incidents.rank_s", "s", f"flows_per_s@{_PW},{_SH},{_F4}"),
    # -- fleet -----------------------------------------------------------
    Layer("fleet.route_s", "s", f"flows_per_s@{_SH}"),
    Layer("fleet.feed_s", "s", f"flows_per_s@{_SH}"),
    Layer("fleet.http_cost_factor", "ratio", f"flows_per_s@{_SH}"),
    # -- service ---------------------------------------------------------
    Layer("service.handle_s", "s", f"flows_per_s@{_SH}"),
    Layer("service.requests", "count", f"flows_per_s@{_SH}"),
    Layer("service.request_overhead_s", "s", f"op_ms_p50@{_SH}"),
    Layer("service.checkpoint_s", "s", f"op_ms_p95@{_SH}"),
    Layer("service.checkpoint_writes", "count", f"op_ms_p95@{_SH}"),
    Layer("service.checkpoint_bytes", "B", f"op_ms_p95@{_SH}"),
    Layer("service.resume_s", "s", f"flows_per_s@{_SH}"),
    Layer("service.query_s", "s", f"flows_per_s@{_SH}"),
    # -- federation ------------------------------------------------------
    Layer("federation.summarize_s", "s", f"flows_per_s@{_F4}"),
    Layer("federation.encode_s", "s", f"flows_per_s@{_F4}"),
    Layer("federation.wire_bytes", "B", f"wire_bytes_per_flow@{_F4}"),
    Layer("federation.decode_s", "s", f"op_ms_p50,op_ms_p95@{_F4}"),
    Layer("federation.merge_s", "s", f"op_ms_p95@{_F4}"),
    Layer("federation.add_s", "s", f"op_ms_p50,op_ms_p95@{_F4}"),
    Layer("federation.released", "count", f"op_ms_p95@{_F4}"),
    Layer("federation.stragglers", "count", "op_fail_ratio@all"),
    Layer("federation.refused", "count", "op_fail_ratio@all"),
    # -- obs (the program's own repro_stage_seconds, as a cross-check) ---
    Layer("obs.enabled_overhead_ratio", "ratio", "flows_per_s@all"),
    Layer("obs.stage_binning_s", "s", "cross-check only"),
    Layer("obs.stage_detection_s", "s", "cross-check only"),
    Layer("obs.stage_mining_s", "s", "cross-check only"),
    Layer("obs.stage_triage_s", "s", "cross-check only"),
    # -- the harness itself ----------------------------------------------
    Layer("trace.untraced_wall_s", "s", "base of every ratio here"),
    Layer("trace.replay_wall_s", "s", "harness cost only"),
    Layer("trace.harness_overhead_ratio", "ratio", "harness cost only"),
    Layer("trace.machine_speed", "ratio", "scales every end-to-end time"),
)

GATED = tuple(m for m in END_TO_END if m.gated)
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these names imply."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
