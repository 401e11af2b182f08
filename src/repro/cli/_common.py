"""Shared CLI plumbing.

Three concerns live here so every subcommand module stays small:

* **Tracked arguments** - :class:`TrackedAction` records which options
  the user actually typed, which is what lets ``--config run.toml``
  merge correctly: explicit flags override file values, file values
  override flag defaults.
* **Table-driven choices** - ``--miner`` and ``--features`` take
  their choice lists from :data:`repro.mining.miners` and
  :data:`repro.detection.features.feature_sets`.
* **Declarative run configs** - :func:`run_config` loads the
  :class:`~repro.core.config.RunConfig` for a subcommand from the
  layered sources.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
from typing import Any

from repro.core.config import RunConfig
from repro.detection.features import feature_sets
from repro.errors import ConfigError, TraceFormatError
from repro.fleet.routing import DEFAULT_ROUTE_COLUMN
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.mining import miners


class GracefulInterrupt(Exception):
    """SIGINT/SIGTERM surfaced as an exception by :func:`interrupt_guard`.

    Carries the signal number so the command can exit with the
    conventional ``128 + signum`` code after flushing.
    """

    def __init__(self, signum: int):
        self.signum = signum
        super().__init__(f"interrupted by {signal.Signals(signum).name}")

    @property
    def exit_code(self) -> int:
        return 128 + self.signum


@contextlib.contextmanager
def interrupt_guard():
    """Convert SIGINT/SIGTERM inside the block into
    :class:`GracefulInterrupt`.

    The streaming commands wrap only their *feed loop* in this guard:
    an interrupt then stops ingesting but still runs the flush, the
    summary, and the ``--store``/``--metrics``/``--trace`` writers, so
    a Ctrl-C'd overnight run keeps everything it extracted instead of
    dying with a bare ``KeyboardInterrupt``.  Handlers are restored on
    exit; outside the main thread (where ``signal.signal`` refuses)
    the guard degrades to a no-op.
    """
    def raise_interrupt(signum, frame):
        raise GracefulInterrupt(signum)

    previous: dict[int, object] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, raise_interrupt)
        except (ValueError, OSError):
            # Not the main thread: leave delivery to the default
            # handlers rather than fail the run.
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]


def check_streamable(trace: str, command: str = "stream") -> None:
    """Refuse a trace the streaming subcommands cannot read
    incrementally: anything but a ``.csv`` path or ``'-'`` for stdin
    (incremental parsing is row-oriented).  The shells call this before
    they open anything, so a refused run creates no store."""
    if trace != "-" and not trace.endswith(".csv"):
        raise TraceFormatError(
            f"{trace}: {command} reads a .csv trace (or '-' for stdin)"
        )


def chunk_source(
    trace: str, chunk_rows: int, command: str = "stream", metrics=None
):
    """Chunked flow iterator for the streaming subcommands (see
    :func:`check_streamable` for what ``trace`` may be).  ``metrics``
    threads a registry through to the CSV parser's row counters."""
    import sys

    from repro.flows import iter_csv, iter_csv_handle

    check_streamable(trace, command)
    if trace == "-":
        return iter_csv_handle(
            sys.stdin, chunk_rows=chunk_rows, name="<stdin>",
            metrics=metrics,
        )
    return iter_csv(trace, chunk_rows=chunk_rows, metrics=metrics)


# ----------------------------------------------------------------------
# Explicit-flag tracking
# ----------------------------------------------------------------------
class TrackedAction(argparse.Action):
    """``store`` semantics plus a record that the option was typed."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        _mark_explicit(namespace, self.dest)


class TrackedTrueAction(argparse.Action):
    """``store_true`` semantics plus the explicit record."""

    def __init__(self, option_strings, dest, default=False, **kwargs):
        kwargs.pop("nargs", None)
        super().__init__(option_strings, dest, nargs=0, default=default,
                         **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)
        _mark_explicit(namespace, self.dest)


def _mark_explicit(namespace: argparse.Namespace, dest: str) -> None:
    explicit = getattr(namespace, "_explicit", None)
    if explicit is None:
        explicit = set()
        setattr(namespace, "_explicit", explicit)
    explicit.add(dest)


def explicit_dests(args: argparse.Namespace) -> set[str]:
    """The option dests the user explicitly passed on the command line."""
    return getattr(args, "_explicit", set())


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------
def add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", default=None, metavar="RUN.TOML",
        help="declarative run config (TOML with [detector]/[mining]/"
        "[streaming]/[incidents]/[obs] tables, plus the "
        "[fleet]/[service]/[federation] run tables: one file serves "
        "every verb); explicit command-line flags override file values",
    )


def add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval-seconds", type=float,
                        default=DEFAULT_INTERVAL_SECONDS)
    parser.add_argument("--clones", type=int, default=3,
                        action=TrackedAction)
    parser.add_argument("--bins", type=int, default=1024,
                        action=TrackedAction)
    parser.add_argument("--votes", type=int, default=3,
                        action=TrackedAction)
    parser.add_argument("--training", type=int, default=96,
                        action=TrackedAction)
    parser.add_argument("--features", default=None,
                        choices=sorted(feature_sets),
                        action=TrackedAction,
                        help="monitored feature set (default: the "
                        "paper's five detectors)")


def add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-support", type=int, default=1000,
                        action=TrackedAction)
    parser.add_argument("--prefilter", choices=("union", "intersection"),
                        default="union", action=TrackedAction)
    parser.add_argument("--miner", choices=sorted(miners),
                        default="apriori", action=TrackedAction,
                        help="frequent item-set miner")


def add_fleet_args(parser: argparse.ArgumentParser) -> None:
    """The pipeline-set flags ``fleet`` and ``serve`` share (see
    :func:`fleet_options`)."""
    parser.add_argument("--origin", type=float, default=0.0,
                        help="timestamp of interval 0")
    parser.add_argument("--pipelines", type=positive_int, default=None,
                        metavar="N",
                        help="run N generated pipelines (link0..linkN-1) "
                        "on the base config; mutually exclusive with "
                        "[fleet.pipelines.<name>] sections in --config")
    parser.add_argument("--route", default=None, metavar="SPEC",
                        help="routing spec: a flow column ('dst_ip'), a "
                        "'column%%N' shard, or a named router ('hash:COLUMN') "
                        f"(default: {DEFAULT_ROUTE_COLUMN} hash-sharded "
                        "over the pipelines)")


def add_format_arg(
    parser: argparse.ArgumentParser,
    json_help: str = "one JSON document per alarmed interval",
) -> None:
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help=f"output format: human-readable table or "
                        f"{json_help}")


def add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="PATH",
                        action=TrackedAction,
                        help="persist every alarmed interval's extraction report "
                        "to a SQLite incident store at PATH (query it "
                        "with 'repro-extract incidents PATH')")


def add_metrics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export run metrics (throughput, late drops, stage "
        "timings) to PATH when the run completes; '-' writes to "
        "stdout",
    )
    parser.add_argument(
        "--metrics-format", choices=("prom", "json"), default="prom",
        help="metrics export format: Prometheus text exposition or "
        "one canonical JSON snapshot",
    )


def _write_export(target: str | None, render) -> None:
    """Write ``render()`` to ``target`` (``-`` = stdout; ``None`` =
    the run asked for no export)."""
    import sys

    if target == "-":
        sys.stdout.write(render())
    elif target is not None:
        with open(target, "w") as handle:
            handle.write(render())


def write_metrics(registry, args: argparse.Namespace) -> None:
    """Export the run's registry per ``--metrics`` /
    ``--metrics-format``."""
    from repro.obs.export import render_json

    _write_export(
        args.metrics,
        lambda: render_json(registry)
        if args.metrics_format == "json"
        else registry.render_prometheus(),
    )


def add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        action=TrackedAction,
        help="record a span trace (per-interval stage timings, "
        "assembler events) and write it to PATH when "
        "the run completes; '-' writes to stdout",
    )
    parser.add_argument(
        "--trace-format", choices=("jsonl", "chrome", "text"),
        default=None, action=TrackedAction,
        help="trace export format: one canonical-JSON span per line, "
        "Chrome trace-event JSON (load in Perfetto), or a "
        "human-readable span tree (default: jsonl)",
    )


def write_trace(tracer, config) -> None:
    """Export the run's trace to ``[obs] trace_path`` in ``[obs]
    trace_format`` - which is where ``--trace`` / ``--trace-format``
    land."""
    from repro.obs.trace import render_trace

    _write_export(
        config.obs.trace_path,
        lambda: render_trace(tracer, config.obs.trace_format or "jsonl"),
    )


# ----------------------------------------------------------------------
# Config resolution
# ----------------------------------------------------------------------
#: argparse dest -> the ``[section] key`` the flag sets.
_CONFIG_DESTS: dict[str, tuple[str, str]] = {
    "clones": ("detector", "clones"),
    "bins": ("detector", "bins"),
    "votes": ("detector", "vote_threshold"),
    "training": ("detector", "training_intervals"),
    "features": ("detector", "features"),
    "min_support": ("mining", "min_support"),
    "prefilter": ("mining", "prefilter_mode"),
    "miner": ("mining", "miner"),
    "window": ("streaming", "window_intervals"),
    "max_delay": ("streaming", "max_delay_seconds"),
    "max_pending": ("streaming", "max_pending_intervals"),
    "keep_extractions": ("streaming", "keep_extractions"),
    "store": ("incidents", "store_path"),
    "trace_out": ("obs", "trace_path"),
    "trace_format": ("obs", "trace_format"),
    "host": ("service", "host"),
    "port": ("service", "port"),
    "ingest_port": ("service", "ingest_port"),
    "checkpoint": ("service", "checkpoint_path"),
    "checkpoint_every": ("service", "checkpoint_every"),
    "checkpoint_sync": ("service", "checkpoint_sync"),
    "cm_width": ("federation", "cm_width"),
    "cm_depth": ("federation", "cm_depth"),
}


def run_config(args: argparse.Namespace) -> RunConfig:
    """The run config for a subcommand's parsed arguments.

    Without ``--config`` every flag value applies (defaults included) -
    exactly the pre-redesign behavior.  With ``--config`` the TOML file
    is the base and only flags the user explicitly typed override it.
    Flags the subcommand doesn't define are simply absent from the
    namespace and skipped (as are unset ``None`` defaults), so one
    builder serves every verb.  The file is read, and all of it
    validated, once - by :meth:`RunConfig.load`, which also layers the
    ``[fleet.pipelines.*]`` tables over the flags.
    """
    path = getattr(args, "config", None)
    chosen = explicit_dests(args) if path else None
    flags: dict[str, dict[str, object]] = {}
    for dest, (section, key) in _CONFIG_DESTS.items():
        value = getattr(args, dest, None)
        if value is None or (chosen is not None and dest not in chosen):
            continue
        flags.setdefault(section, {})[key] = value
    if getattr(args, "metrics", None) is not None:
        # --metrics PATH turns the registry on; write_metrics has the path.
        flags.setdefault("obs", {})["enabled"] = True
    return RunConfig.load(path, flags)


def weak_retention(
    args: argparse.Namespace, run: RunConfig
) -> dict[str, bool]:
    """The streaming verbs' weak ``keep_extractions=False`` default as
    an :mod:`repro.api` keyword override (they print or store results
    as they complete, so retention would only grow): empty when
    ``--keep-extractions`` or the base ``[streaming]`` key asks for
    retention.  A keyword override sits below the
    ``[fleet.pipelines.<name>]`` tables, so a pipeline's own key wins.
    """
    if "keep_extractions" in explicit_dests(args) or run.sets(
        "streaming", "keep_extractions"
    ):
        return {}
    return {"keep_extractions": False}


def fleet_options(args: argparse.Namespace, run: RunConfig) -> dict[str, Any]:
    """The keyword arguments the ``fleet`` and ``serve`` shells hand
    :func:`repro.api.open_fleet` / :func:`repro.api.serve`, under the
    command line's two policies: a fleet is configured in one place,
    and results are not retained unless asked."""
    if args.pipelines is not None and run.fleet.pipelines:
        raise ConfigError(
            "both --pipelines and [fleet.pipelines.<name>] sections "
            "given; configure the fleet in one place"
        )
    return {
        "pipelines": args.pipelines,
        "route": args.route,
        "store_dir": args.store_dir,
        "interval_seconds": args.interval_seconds,
        "origin": args.origin,
        "seed": args.seed,
        **weak_retention(args, run),
    }
