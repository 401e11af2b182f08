"""``repro-extract extract`` - the full extraction pipeline over a
trace file or stdin: the argv shell over a :func:`repro.api.session`
fed the source's chunks (:func:`~repro.flows.io.flow_chunks`).
Reports print as intervals complete; ``--alarms-only`` lists the
detector bank's alarms instead."""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro import api
from repro.cli._common import (
    GracefulInterrupt,
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_format_arg,
    add_metrics_args,
    add_source_args,
    check_source,
    interrupt_guard,
    run_config,
    weak_retention,
    write_metrics,
    write_trace,
)
from repro.core.config import IncidentSettings, ObsSettings
from repro.errors import ConfigError
from repro.flows.io import flow_chunks
from repro.obs.log import get_logger

#: The flags that write a file, by argparse dest: ``--alarms-only``
#: writes none, so it refuses them rather than ignore them.
_OUTPUT_FLAGS = {
    "--store": "incidents.store_path",
    "--metrics": "metrics",
    "--trace": "obs.trace_path",
}


def add_parser(sub: argparse._SubParsersAction) -> None:
    ext = sub.add_parser(
        "extract",
        help="full online extraction over a .csv/.npz trace or stdin ('-')",
    )
    add_source_args(ext)
    add_config_arg(ext)
    add_detector_args(ext)
    add_config_flags(ext, "mining", "streaming")
    ext.add_argument("--alarms-only", action="store_true",
                     help="list the alarmed intervals and their alarmed "
                     "features only (writes no store, metrics or trace "
                     "file)")
    add_format_arg(ext)
    add_config_flags(ext, "incidents.store_path")
    add_metrics_args(ext)
    add_config_flags(ext, "obs")
    ext.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    run_cfg = run_config(args)
    # Before the session opens (and creates) its store.
    check_source(args.trace)
    if args.alarms_only:
        for flag, dest in _OUTPUT_FLAGS.items():
            if getattr(args, dest) is not None:
                raise ConfigError(f"{flag} writes a file; --alarms-only "
                                  f"writes none")
        # Detection persists nothing: no store, telemetry file or
        # tracer is opened, whatever the [incidents]/[obs] tables say;
        # the bank keeps its reports for the alarm listing.
        outputs: dict[str, Any] = {
            "incidents": IncidentSettings(), "obs": ObsSettings(),
            "keep_reports": True,
        }
    else:
        # Reports print as they complete and no post-hoc DetectionRun
        # is built, so per-interval reports need not accumulate - this
        # is what keeps day-long pipes flat.
        outputs = {"keep_reports": False}

    def emit(extractions) -> None:
        if args.alarms_only:
            return
        for extraction in extractions:
            if args.format == "json":
                # report_for carries the true (window-aware) bounds.
                print(session.report_for(extraction).to_json())
            else:
                print(extraction.render())
                print()

    interrupted: GracefulInterrupt | None = None
    with api.session(
        run_cfg,
        seed=args.seed,
        interval_seconds=args.interval_seconds,
        origin=args.origin,
        **outputs,
        **weak_retention(args, run_cfg),
    ) as session:
        try:
            # Only the feed loop is guarded: an interrupt stops
            # ingesting but the flush below still completes every
            # buffered interval, so --store/--metrics/--trace keep
            # everything extracted before the signal.
            with interrupt_guard():
                for chunk in flow_chunks(
                    args.trace, args.chunk_rows, args.interval_seconds,
                    args.origin, session.metrics,
                ):
                    emit(session.feed(chunk))
        except GracefulInterrupt as exc:
            interrupted = exc
        emit(session.flush())
        result = session.result()
    code = interrupted.exit_code if interrupted is not None else 0
    if args.alarms_only:
        _print_alarms(result.detection, args)
        if interrupted is not None:
            get_logger("cli.extract").info("%s; flushed", interrupted)
        return code
    summary = (
        f"{result.intervals} intervals, {result.flows} flows, "
        f"{result.extraction_count} extractions"
    )
    if interrupted is not None:
        summary += f" ({interrupted}; flushed and saved)"
    if result.late_dropped:
        summary += (
            f", {result.late_dropped} late flows dropped "
            f"(pre-origin {result.late_dropped_pre_origin}, "
            f"closed-interval {result.late_dropped_closed})"
        )
    if session.config.streaming.window_intervals > 1:
        summary += (
            f"; windows mined {result.windows_mined}, "
            f"skipped {result.windows_skipped}"
        )
    # In JSON mode stdout carries one document per alarmed interval and
    # nothing else; the human summary goes to stderr - through the
    # structured logger, so embedding applications can re-route it.
    if args.format == "json":
        get_logger("cli.extract").info("%s", summary)
    else:
        print(summary)
    write_metrics(session.metrics, args)
    write_trace(session.tracer, run_cfg.base)
    return code


def _print_alarms(detection, args: argparse.Namespace) -> None:
    alarms = detection.alarm_intervals()
    if args.format == "table":
        print(f"{detection.n_intervals} intervals, {len(alarms)} alarms")
    for interval in alarms:
        report = detection.report(interval)
        features = [f.short_name for f in report.alarmed_features]
        if args.format == "table":
            print(f"  interval {interval}: {', '.join(features)}")
            continue
        print(json.dumps({
            "interval": interval,
            "start": args.origin + interval * args.interval_seconds,
            "end": args.origin + (interval + 1) * args.interval_seconds,
            "flow_count": report.flow_count,
            "alarmed_features": features,
        }, sort_keys=True))
