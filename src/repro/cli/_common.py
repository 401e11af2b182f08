"""Shared CLI plumbing.

Three concerns live here so every subcommand module stays small:

* **Tracked arguments** - :class:`TrackedAction` records which options
  the user actually typed, which is what lets ``--config run.toml``
  merge correctly: explicit flags override file values, file values
  override flag defaults.
* **Registry-driven choices** - ``--miner`` and ``--features`` take
  their choice lists from :mod:`repro.registry`, so a registered
  third-party extension is selectable without touching the CLI.
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
from repro.errors import ConfigError
from repro.flows import read_trace
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.parallel import EXECUTOR_BACKENDS
from repro.registry import feature_sets, miners


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


def load_trace(path: str):
    """Read a whole trace through the trace-reader registry."""
    return read_trace(path)


def chunk_source(
    trace: str, chunk_rows: int, command: str = "stream", metrics=None
):
    """Chunked flow iterator for the streaming subcommands: a ``.csv``
    path or ``'-'`` for stdin (anything else is rejected up front -
    incremental parsing is row-oriented).  ``metrics`` threads a
    registry through to the CSV parser's row counters."""
    import sys

    from repro.errors import TraceFormatError
    from repro.flows import iter_csv, iter_csv_handle

    if trace == "-":
        return iter_csv_handle(
            sys.stdin, chunk_rows=chunk_rows, name="<stdin>",
            metrics=metrics,
        )
    if trace.endswith(".csv"):
        return iter_csv(trace, chunk_rows=chunk_rows, metrics=metrics)
    raise TraceFormatError(
        f"{trace}: {command} reads a .csv trace (or '-' for stdin)"
    )


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
        "[parallel]/[streaming]/[incidents]/[obs] tables, plus the "
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
                        choices=sorted(feature_sets.names()),
                        action=TrackedAction,
                        help="monitored feature set (registered via "
                        "repro.registry.feature_sets; default: the "
                        "paper's five detectors)")


def add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-support", type=int, default=1000,
                        action=TrackedAction)
    parser.add_argument("--prefilter", choices=("union", "intersection"),
                        default="union", action=TrackedAction)
    parser.add_argument("--miner", choices=sorted(miners.names()),
                        default="apriori", action=TrackedAction,
                        help="frequent item-set miner (any name "
                        "registered via repro.registry.miners)")


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


def build_metrics_registry(args: argparse.Namespace, config):
    """A real registry when the run wants one, else ``None``.

    ``--metrics PATH`` or a run config with ``[obs] enabled = true``
    turns observability on; everything else runs against the no-op
    registry (chosen downstream when this returns ``None``).
    """
    from repro.obs.metrics import MetricsRegistry

    if getattr(args, "metrics", None) is None and not config.obs_enabled:
        return None
    return MetricsRegistry(buckets=config.obs.histogram_buckets)


def write_metrics(registry, args: argparse.Namespace) -> None:
    """Export the registry per ``--metrics`` / ``--metrics-format``."""
    import sys

    target = getattr(args, "metrics", None)
    if target is None or registry is None:
        return
    if getattr(args, "metrics_format", "prom") == "json":
        from repro.obs.export import render_json

        text = render_json(registry)
    else:
        text = registry.render_prometheus()
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w") as handle:
            handle.write(text)


def add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        help="record a span trace (per-interval stage timings, "
        "assembler events, worker shards) and write it to PATH when "
        "the run completes; '-' writes to stdout",
    )
    parser.add_argument(
        "--trace-format", choices=("jsonl", "chrome", "text"),
        default=None,
        help="trace export format: one canonical-JSON span per line, "
        "Chrome trace-event JSON (load in Perfetto), or a "
        "human-readable span tree (default: jsonl)",
    )


def build_tracer(args: argparse.Namespace, config):
    """A real tracer when the run wants one, else ``None``.

    ``--trace PATH`` or a run config with ``[obs] trace_path`` turns
    span tracing on; everything else runs against the no-op tracer
    (chosen downstream when this returns ``None``).
    """
    from repro.obs.trace import Tracer

    if (
        getattr(args, "trace_out", None) is None
        and config.obs.trace_path is None
    ):
        return None
    return Tracer()


def write_trace(tracer, args: argparse.Namespace, config) -> None:
    """Export the trace per ``--trace`` / ``--trace-format``, falling
    back to the config's ``[obs] trace_path/trace_format`` keys."""
    import sys

    if tracer is None:
        return
    target = getattr(args, "trace_out", None) or config.obs.trace_path
    if target is None:
        return
    fmt = (
        getattr(args, "trace_format", None)
        or config.obs.trace_format
        or "jsonl"
    )
    from repro.obs.trace import render_trace

    text = render_trace(tracer, fmt)
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w") as handle:
            handle.write(text)


def add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=positive_int, default=1,
                        action=TrackedAction,
                        help="worker count; > 1 enables the parallel "
                        "partitioned engine")
    parser.add_argument("--backend", choices=EXECUTOR_BACKENDS,
                        default="thread", action=TrackedAction,
                        help="executor backend used when --jobs > 1")


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
    "jobs": ("parallel", "jobs"),
    "backend": ("parallel", "backend"),
    "partitions": ("parallel", "partitions"),
    "window": ("streaming", "window_intervals"),
    "max_delay": ("streaming", "max_delay_seconds"),
    "max_pending": ("streaming", "max_pending_intervals"),
    "keep_extractions": ("streaming", "keep_extractions"),
    "store": ("incidents", "store_path"),
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
    return RunConfig.load(path, flags)


def keeps_extractions(
    args: argparse.Namespace, run: RunConfig, pipeline: str | None = None
) -> bool:
    """Whether the user asked - ``--keep-extractions``, the base
    ``[streaming] keep_extractions``, or that key in ``pipeline``'s
    ``[fleet.pipelines.<name>]`` override - for extraction retention.

    The streaming verbs print or store results as they complete and
    read counters afterwards, so their weak default drops extractions
    (the library default keeps them); an explicit ask must still win.
    """
    key = ("streaming", "keep_extractions")
    return (
        "keep_extractions" in explicit_dests(args)
        or run.sets(*key)
        or (
            pipeline is not None
            and run.sets("fleet", "pipelines", pipeline, *key)
        )
    )


#: Routing spec used by ``fleet`` and ``serve`` when neither ``--route``
#: nor the run config names one: hash-shard destination IPs across the
#: pipelines.
DEFAULT_ROUTE_COLUMN = "dst_ip"


def fleet_arguments(
    args: argparse.Namespace, run: RunConfig, unconfigured: int = 0
) -> dict[str, Any]:
    """:class:`~repro.fleet.manager.FleetManager` arguments for the
    ``fleet`` and ``serve`` verbs: ``--pipelines``/``--route``/
    ``--store-dir`` over the ``[fleet]`` table, each pipeline under the
    CLI's weak retention default (see :func:`keeps_extractions`).
    ``unconfigured`` is how many pipelines to generate when neither
    names any (0 = refuse)."""
    configs = run.fleet.pipeline_configs()
    if args.pipelines is not None and configs:
        raise ConfigError(
            "both --pipelines and [fleet.pipelines.<name>] sections "
            "given; configure the fleet in one place"
        )
    if not configs:
        count = unconfigured if args.pipelines is None else args.pipelines
        configs = {f"link{i}": run.base for i in range(count)}
    if not configs:
        raise ConfigError(
            "no pipelines configured: pass --pipelines N or add "
            "[fleet.pipelines.<name>] sections to --config"
        )

    def first(*values: str | None) -> str | None:
        return next((v for v in values if v is not None), None)

    return {
        "pipelines": {
            name: (
                config
                if keeps_extractions(args, run, name)
                else config.replace(keep_extractions=False)
            )
            for name, config in configs.items()
        },
        "route": first(args.route, run.fleet.route, DEFAULT_ROUTE_COLUMN),
        "store_dir": first(args.store_dir, run.fleet.store_dir),
        "interval_seconds": args.interval_seconds,
        "origin": args.origin,
        "seed": args.seed,
    }
