"""Shared CLI plumbing.

Two concerns live here so every subcommand module stays small:

* **One flag table** - :data:`CONFIG_FLAGS` declares every flag that
  sets a run-config key; :func:`add_config_flags` derives each flag's
  type, choices and shown default from the settings field it sets.
* **Declarative run configs** - :func:`run_config` loads the
  :class:`~repro.core.config.RunConfig` for a subcommand from the
  layered sources: ``--config`` file, then the flags typed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import typing
from typing import Any

from repro.core.config import (
    PREFILTER_MODES,
    TABLE_TYPES,
    TRACE_FORMATS,
    RunConfig,
)
from repro.detection.features import feature_sets, resolve_features
from repro.errors import ConfigError
from repro.fleet.routing import DEFAULT_ROUTE_COLUMN
from repro.flows.io import DEFAULT_CHUNK_ROWS, trace_format
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

    The run verbs wrap only their *feed loop* in this guard:
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


def check_source(trace: str) -> None:
    """Refuse a SOURCE the run verbs cannot read: anything but ``'-'``
    (CSV on stdin) or a path :func:`~repro.flows.io.trace_format`
    knows.  The shells call this before they open anything, so a
    refused run creates no store."""
    if trace != "-":
        trace_format(trace)


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


def add_source_args(parser: argparse.ArgumentParser) -> None:
    """A run verb's SOURCE and ``--chunk-rows``: what
    :func:`~repro.flows.io.flow_chunks` reads."""
    parser.add_argument("trace", metavar="SOURCE",
                        help="a .csv or .npz trace, or '-' for CSV on stdin")
    parser.add_argument("--chunk-rows", type=positive_int,
                        default=DEFAULT_CHUNK_ROWS,
                        help="flows parsed per chunk (bounds parser memory)")


def add_detector_args(parser: argparse.ArgumentParser) -> None:
    """The interval grid - ``--interval-seconds`` and ``--origin``
    define it together - and the ``[detector]`` flags."""
    parser.add_argument("--interval-seconds", type=float,
                        default=DEFAULT_INTERVAL_SECONDS)
    parser.add_argument("--origin", type=float, default=0.0,
                        help="timestamp of interval 0 (set this to the "
                        "capture start for traces with absolute/epoch "
                        "timestamps; federated sites must share it)")
    add_config_flags(parser, "detector")


def add_fleet_args(parser: argparse.ArgumentParser) -> None:
    """The pipeline-set flags ``fleet`` and ``serve`` share (see
    :func:`fleet_options`)."""
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
#: ``"section.key"`` -> ``(flag, help)``: every flag that sets a
#: run-config key, declared here and nowhere else.  The flag's dest is
#: the name, its default ``None`` (unset: the ``--config`` file or the
#: field default decides); type, choices and the default its help shows
#: come from the settings field (:func:`add_config_flags`).
CONFIG_FLAGS: dict[str, tuple[str, str]] = {
    "detector.clones": ("--clones", "histogram clones per detector (C)"),
    "detector.bins": ("--bins", "bins per histogram clone (m)"),
    "detector.vote_threshold": (
        "--votes", "clones that must agree on a feature value (V)",
    ),
    "detector.training_intervals": (
        "--training", "intervals that calibrate each alarm threshold",
    ),
    "detector.features": ("--features", "monitored feature set"),
    "mining.min_support": (
        "--min-support", "minimum item-set support in flows (s)",
    ),
    "mining.prefilter_mode": (
        "--prefilter", "how the voted meta-data selects flows to mine",
    ),
    "mining.miner": ("--miner", "frequent item-set miner"),
    "streaming.window_intervals": (
        "--window", "sliding mining window in intervals "
        "(1 = mine each alarmed interval alone)",
    ),
    "streaming.max_delay_seconds": (
        "--max-delay", "seconds an interval stays open for "
        "out-of-order flows",
    ),
    "streaming.max_pending_intervals": (
        "--max-pending", "cap on intervals buffered at once "
        "(unset: unbounded)",
    ),
    "streaming.keep_extractions": (
        "--keep-extractions", "retain every extraction result in memory "
        "for the whole run (the library default; the CLI prints or "
        "stores results as they complete and drops them, so unbounded "
        "noisy pipes run flat without it)",
    ),
    "incidents.store_path": (
        "--store", "persist every alarmed interval's extraction report "
        "to a SQLite incident store at this path (query it with "
        "'repro-extract incidents PATH')",
    ),
    "incidents.jaccard": (
        "--jaccard", "item-set similarity threshold for merging "
        "intervals into one incident (1.0 = exact only; unset: the "
        "value the store was written with)",
    ),
    "incidents.quiet_gap": (
        "--quiet-gap", "intervals of silence before an incident closes "
        "(reappearance then opens a new one; unset: the value the "
        "store was written with)",
    ),
    "obs.trace_path": (
        "--trace", "record a span trace (per-interval stage timings, "
        "assembler events) and write it to this path when the run "
        "completes; '-' writes to stdout",
    ),
    "obs.trace_format": (
        "--trace-format", "trace export format: one canonical-JSON span "
        "per line, Chrome trace-event JSON (load in Perfetto), or a "
        "human-readable span tree",
    ),
    "service.host": ("--host", "bind address"),
    "service.port": ("--port", "HTTP port (0 = ephemeral)"),
    "service.ingest_port": (
        "--ingest-port", "enable the TCP line-ingest socket on this "
        "port (each line one header-less CSV flow row)",
    ),
    "service.checkpoint_path": ("--checkpoint", "durable checkpoint file"),
    "service.checkpoint_every": (
        "--checkpoint-every", "accepted ingest batches between checkpoints",
    ),
    "service.checkpoint_sync": (
        "--checkpoint-sync", "fsync every checkpoint write (power-loss "
        "durability; kill-safe resume needs only the atomic rename)",
    ),
    "federation.straggler_grace": (
        "--grace", "release an interval once this many later intervals "
        "have been seen, merging whatever arrived",
    ),
    "federation.min_support": (
        "--min-support", "support floor: a voted value's exact flow "
        "count over the merged interval",
    ),
    "federation.store_path": (
        "--store", "append the federation's extraction reports to a "
        "SQLite incident store at this path",
    ),
}

#: The choices a flag offers: the tuples and name tables the settings'
#: own validation checks against.
_CHOICES: dict[str, typing.Sequence[str]] = {
    "detector.features": sorted(feature_sets),
    "mining.prefilter_mode": PREFILTER_MODES,
    "mining.miner": sorted(miners),
    "obs.trace_format": TRACE_FORMATS,
}


def config_field(name: str) -> tuple[type, object]:
    """``(type, default)`` of the settings field a :data:`CONFIG_FLAGS`
    name sets; an Optional annotation yields its non-``None`` type."""
    section, key = name.split(".")
    if name == "detector.features":
        # Not a DetectorConfig field: the feature set the key names.
        default = resolve_features(None)
        return str, next(k for k, v in feature_sets.items() if v == default)
    cls = TABLE_TYPES[section]
    annotation = typing.get_type_hints(cls)[key]
    kind = next(
        (t for t in typing.get_args(annotation) if t is not type(None)),
        annotation,
    )
    field = next(f for f in dataclasses.fields(cls) if f.name == key)
    return kind, field.default


def add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the :data:`CONFIG_FLAGS` of each named section (``"mining"``)
    or key (``"streaming.window_intervals"``), in table order."""
    for name, (flag, text) in CONFIG_FLAGS.items():
        if name not in names and name.split(".")[0] not in names:
            continue
        kind, default = config_field(name)
        if kind is bool:
            parser.add_argument(
                flag, dest=name, default=None, action="store_true",
                help=text,
            )
            continue
        if default is not None:
            text += f" (default: {default})"
        choices = _CHOICES.get(name)
        if choices:
            metavar = None
        elif name.endswith("_path"):
            metavar = "PATH"
        else:
            metavar = flag.lstrip("-").replace("-", "_").upper()
        parser.add_argument(
            flag, dest=name, default=None, choices=choices,
            type=None if kind is str else kind, metavar=metavar, help=text,
        )


def run_config(args: argparse.Namespace) -> RunConfig:
    """The run config for a subcommand's parsed arguments: the
    ``--config`` file (if any), then every config flag that was typed -
    an unset flag is ``None`` and leaves its key alone.  The file is
    read, and all of it validated, once - by :meth:`RunConfig.load`,
    which also layers the ``[fleet.pipelines.*]`` tables over the flags.
    """
    flags: dict[str, dict[str, object]] = {}
    for name in CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            section, key = name.split(".")
            flags.setdefault(section, {})[key] = value
    if getattr(args, "metrics", None) is not None:
        # --metrics PATH turns the registry on; write_metrics has the path.
        flags.setdefault("obs", {})["enabled"] = True
    return RunConfig.load(getattr(args, "config", None), flags)


def weak_retention(
    args: argparse.Namespace, run: RunConfig
) -> dict[str, bool]:
    """The run verbs' weak ``keep_extractions=False`` default as
    an :mod:`repro.api` keyword override (they print or store results
    as they complete, so retention would only grow): empty when
    ``--keep-extractions`` or the base ``[streaming]`` key asks for
    retention.  A keyword override sits below the
    ``[fleet.pipelines.<name>]`` tables, so a pipeline's own key wins.
    """
    if getattr(args, "streaming.keep_extractions") or run.sets(
        "streaming", "keep_extractions"
    ):
        return {}
    return {"keep_extractions": False}


def fleet_options(args: argparse.Namespace, run: RunConfig) -> dict[str, Any]:
    """The keyword arguments the ``fleet`` and ``serve`` shells hand
    :func:`repro.api.open_fleet` / :func:`repro.api.serve`, under the
    command line's policy that a fleet is configured in one place."""
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
    }
