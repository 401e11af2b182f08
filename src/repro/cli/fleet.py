"""``repro-extract fleet`` - route one trace across many pipelines.

The argv shell over :func:`repro.api.open_fleet`: one Fig. 3 pipeline
per monitored link, all behind a single router
(:class:`~repro.fleet.manager.FleetManager`).
Per-pipeline reports land in per-pipeline incident stores
(``--store-dir``, or in-memory stores for a one-shot run), and the
final output is the fleet-wide merged incident ranking.
"""

from __future__ import annotations

import argparse
import json

from repro import api
from repro.cli._common import (
    GracefulInterrupt,
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_fleet_args,
    add_format_arg,
    add_metrics_args,
    add_source_args,
    check_source,
    fleet_options,
    interrupt_guard,
    positive_int,
    run_config,
    weak_retention,
    write_metrics,
    write_trace,
)
from repro.errors import ConfigError
from repro.fleet.routing import DEFAULT_ROUTE_COLUMN
from repro.flows.io import flow_chunks
from repro.obs.log import get_logger


def add_parser(sub: argparse._SubParsersAction) -> None:
    fleet = sub.add_parser(
        "fleet",
        help="multi-pipeline extraction: route a .csv/.npz trace or stdin "
        "('-') across N per-link pipelines",
    )
    add_source_args(fleet)
    add_config_arg(fleet)
    add_detector_args(fleet)
    add_config_flags(fleet, "mining")
    add_fleet_args(fleet)
    fleet.add_argument("--store-dir", default=None, metavar="DIR",
                       help="directory of per-pipeline incident stores "
                       "(<name>.db, created if missing); default: "
                       "in-memory stores, queried then discarded")
    fleet.add_argument("--profile", default="balanced",
                       help="incident ranking weight profile "
                       "(balanced, volume, campaign)")
    fleet.add_argument("--top", type=positive_int, default=None,
                       help="print only the K best-ranked fleet incidents")
    add_config_flags(fleet, "streaming.keep_extractions")
    add_format_arg(
        fleet,
        json_help="one JSON document for the whole run (per-pipeline "
        "summaries + merged incident ranking)",
    )
    add_metrics_args(fleet)
    add_config_flags(fleet, "obs")
    fleet.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    run_cfg = run_config(args)
    options = {
        **fleet_options(args, run_cfg), **weak_retention(args, run_cfg)
    }
    if args.pipelines is None and not run_cfg.fleet.pipelines:
        raise ConfigError(
            "no pipelines configured: pass --pipelines N or add "
            "[fleet.pipelines.<name>] sections to --config"
        )
    if args.route is None and run_cfg.fleet.route is None:
        # A one-shot run cannot tag chunks per link.
        options["route"] = DEFAULT_ROUTE_COLUMN
    # Before the fleet opens (and creates) its stores.
    check_source(args.trace)
    with api.open_fleet(run_cfg, **options) as fleet:
        chunks = flow_chunks(
            args.trace, args.chunk_rows, args.interval_seconds, args.origin,
            fleet.metrics,
        )
        interrupted: GracefulInterrupt | None = None
        try:
            # Guard only the feed loop: an interrupt stops ingesting,
            # but finish() below still flushes every pipeline, so the
            # ranking/stores/--metrics/--trace cover everything routed
            # before the signal.
            with interrupt_guard():
                for chunk in chunks:
                    fleet.feed(chunk)
        except GracefulInterrupt as exc:
            interrupted = exc
            get_logger("cli.fleet").info(
                "%s; flushing pipelines and saving output", exc
            )
        results = fleet.finish()
        incidents = fleet.incidents(profile=args.profile, top=args.top)
        if args.format == "json":
            print(json.dumps(_document(fleet, results, incidents)))
            _summary(results)
        else:
            for line in _render_table(results, incidents):
                print(line)
    # After the with-block so the fleet.run root span is ended.
    write_metrics(fleet.metrics, args)
    write_trace(fleet.tracer, run_cfg.base)
    return interrupted.exit_code if interrupted is not None else 0


def _document(fleet, results, incidents) -> dict:
    doc = {"pipelines": {}, "incidents": [i.to_dict() for i in incidents]}
    for name, result in results.items():
        store = fleet.session(name).store
        doc["pipelines"][name] = {
            "intervals": result.intervals,
            "flows": result.flows,
            "extractions": result.extraction_count,
            "late_dropped": result.late_dropped,
            "store": (
                None
                if store is None or store.path == ":memory:"
                else store.path
            ),
        }
    return doc


def _summary(results) -> None:
    total_flows = sum(r.flows for r in results.values())
    total_extractions = sum(r.extraction_count for r in results.values())
    # Through the structured logger (stderr): stdout carries the JSON
    # document only, and embedding applications can re-route the line.
    get_logger("cli.fleet").info(
        "%s pipelines, %s flows, %s extractions",
        len(results), total_flows, total_extractions,
    )


def _render_table(results, incidents):
    for name, result in results.items():
        line = (
            f"{name}: {result.intervals} intervals, {result.flows} flows, "
            f"{result.extraction_count} extractions"
        )
        if result.late_dropped:
            line += f", {result.late_dropped} late flows dropped"
        yield line
    if not incidents:
        yield "no incidents"
        return
    yield ""
    yield f"fleet incidents ({len(incidents)}):"
    for entry in incidents:
        yield entry.render()
