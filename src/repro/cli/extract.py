"""``repro-extract extract`` - the full batch extraction pipeline."""

from __future__ import annotations

import argparse

from repro.cli._common import (
    TrackedAction,
    add_config_arg,
    add_detector_args,
    add_format_arg,
    add_metrics_args,
    add_mining_args,
    add_parallel_args,
    add_store_arg,
    add_trace_args,
    build_metrics_registry,
    build_tracer,
    load_trace,
    positive_int,
    run_config,
    write_metrics,
    write_trace,
)
from repro.core import AnomalyExtractor, ExtractionReport
from repro.sinks import TeeSink


def add_parser(sub: argparse._SubParsersAction) -> None:
    ext = sub.add_parser("extract", help="full online extraction")
    ext.add_argument("trace")
    add_config_arg(ext)
    add_detector_args(ext)
    add_mining_args(ext)
    add_parallel_args(ext)
    ext.add_argument("--partitions", type=positive_int, default=None,
                     action=TrackedAction,
                     help="transaction shards per mining call "
                     "(default: one per worker)")
    add_format_arg(ext)
    add_store_arg(ext)
    add_metrics_args(ext)
    add_trace_args(ext)
    ext.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    flows = load_trace(args.trace)
    config = run_config(args).base
    registry = build_metrics_registry(args, config)
    tracer = build_tracer(args, config)
    with AnomalyExtractor(
        config, seed=args.seed, metrics=registry, tracer=tracer
    ) as extractor:
        if args.format == "json":
            # Collect the reports run_trace builds anyway (teeing into
            # the store when one is configured) instead of rebuilding
            # each one for printing.
            reports: list[ExtractionReport] = []
            sink = (
                TeeSink(extractor.store, reports)
                if extractor.store is not None else reports
            )
            result = extractor.run_trace(
                flows, args.interval_seconds, sink=sink
            )
        else:
            result = extractor.run_trace(flows, args.interval_seconds)
    if args.format == "json":
        for report in reports:
            print(report.to_json())
        write_metrics(registry, args)
        write_trace(tracer, args, config)
        return 0
    if not result.extractions:
        print("no extractions (no alarms with usable meta-data)")
        write_metrics(registry, args)
        write_trace(tracer, args, config)
        return 0
    for extraction in result.extractions:
        print(extraction.render())
        print()
    write_metrics(registry, args)
    write_trace(tracer, args, config)
    return 0
