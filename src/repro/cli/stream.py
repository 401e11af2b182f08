"""``repro-extract stream`` - bounded-memory extraction over CSV/stdin:
the argv shell over a stream-mode :func:`repro.api.session`."""

from __future__ import annotations

import argparse

from repro import api
from repro.cli._common import (
    GracefulInterrupt,
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_format_arg,
    add_metrics_args,
    check_streamable,
    chunk_source,
    interrupt_guard,
    positive_int,
    run_config,
    weak_retention,
    write_metrics,
    write_trace,
)
from repro.flows.io import DEFAULT_CHUNK_ROWS
from repro.obs.log import get_logger


def add_parser(sub: argparse._SubParsersAction) -> None:
    stream = sub.add_parser(
        "stream",
        help="bounded-memory extraction over a CSV file or stdin ('-')",
    )
    stream.add_argument("trace",
                        help="path to a .csv trace, or '-' for stdin")
    add_config_arg(stream)
    add_detector_args(stream)
    add_config_flags(stream, "mining")
    stream.add_argument("--chunk-rows", type=positive_int,
                        default=DEFAULT_CHUNK_ROWS,
                        help="flows parsed per chunk (bounds parser memory)")
    stream.add_argument("--origin", type=float, default=0.0,
                        help="timestamp of interval 0 (set this to the "
                        "capture start for traces with absolute/epoch "
                        "timestamps)")
    add_config_flags(stream, "streaming")
    add_format_arg(stream)
    add_config_flags(stream, "incidents.store_path")
    add_metrics_args(stream)
    add_config_flags(stream, "obs")
    stream.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    run_cfg = run_config(args)
    # Before the session opens (and creates) its store.
    check_streamable(args.trace)

    def emit(session, extraction) -> None:
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
        # The CLI prints reports as they complete and never builds a
        # post-hoc DetectionRun, so per-interval reports need not
        # accumulate - this is what keeps day-long pipes flat.
        keep_reports=False,
        **weak_retention(args, run_cfg),
    ) as session:
        chunks = chunk_source(
            args.trace, args.chunk_rows, metrics=session.metrics
        )
        try:
            # Only the feed loop is guarded: an interrupt stops
            # ingesting but the flush below still completes every
            # buffered interval, so --store/--metrics/--trace keep
            # everything extracted before the signal.
            with interrupt_guard():
                for chunk in chunks:
                    for extraction in session.feed(chunk):
                        emit(session, extraction)
        except GracefulInterrupt as exc:
            interrupted = exc
        for extraction in session.flush():
            emit(session, extraction)
        result = session.result()
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
        get_logger("cli.stream").info("%s", summary)
    else:
        print(summary)
    write_metrics(session.metrics, args)
    write_trace(session.tracer, run_cfg.base)
    return interrupted.exit_code if interrupted is not None else 0
