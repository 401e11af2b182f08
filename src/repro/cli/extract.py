"""``repro-extract extract`` - the full extraction pipeline over a
stored trace: the argv shell over the session :func:`repro.api.extract`
runs."""

from __future__ import annotations

import argparse

from repro import api
from repro.cli._common import (
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_format_arg,
    add_metrics_args,
    run_config,
    write_metrics,
    write_trace,
)
from repro.core.session import run_trace


def add_parser(sub: argparse._SubParsersAction) -> None:
    ext = sub.add_parser("extract", help="full online extraction")
    ext.add_argument("trace")
    add_config_arg(ext)
    add_detector_args(ext)
    add_config_flags(ext, "mining")
    add_format_arg(ext)
    add_config_flags(ext, "incidents.store_path")
    add_metrics_args(ext)
    add_config_flags(ext, "obs")
    ext.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    flows = api.read_trace(args.trace)
    run_cfg = run_config(args)
    with api.session(
        run_cfg,
        # What api.extract pins: every interval mined on its own, every
        # extraction kept, whatever the config's [streaming] table says.
        streaming=api.StreamingSettings(),
        seed=args.seed,
        interval_seconds=args.interval_seconds,
    ) as session:
        extractions = run_trace(session, flows).extractions
    if args.format == "json":
        for extraction in extractions:
            # The report the store received, not a rebuilt one.
            print(session.report_for(extraction).to_json())
    elif extractions:
        for extraction in extractions:
            print(extraction.render())
            print()
    else:
        print("no extractions (no alarms with usable meta-data)")
    write_metrics(session.metrics, args)
    write_trace(session.tracer, run_cfg.base)
    return 0
