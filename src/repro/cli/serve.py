"""``repro-extract serve`` - the long-running extraction daemon.

Wraps a :class:`~repro.fleet.manager.FleetManager` in the stdlib-only
HTTP/TCP service (:mod:`repro.service`): ``POST /ingest`` and the
optional TCP line socket feed the fleet, ``GET /incidents`` serves the
merged ranking, ``GET /metrics`` the Prometheus export, and
``GET /healthz`` the per-pipeline assembler posture.  With
``checkpoint_path`` configured the daemon periodically persists the
whole fleet's resume state; after a crash, ``--resume`` continues the
run mid-stream without re-ingesting (clients replay from the
``checkpointed_sequence`` the resumed daemon reports).  With
``[federation]`` sites configured the daemon is also a federator:
``POST /digest`` accepts per-site interval digests, and the federation
state rides along in the checkpoints.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses

from repro.cli._common import (
    DEFAULT_ROUTE_COLUMN,
    TrackedTrueAction,
    add_config_arg,
    add_detector_args,
    add_mining_args,
    add_parallel_args,
    fleet_arguments,
    positive_int,
    run_config,
)
from repro.federation.tier import open_federator
from repro.fleet import FleetManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def add_parser(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the extraction daemon: HTTP/TCP ingest, incident "
        "queries, Prometheus metrics, durable checkpoint resume",
    )
    add_config_arg(serve)
    add_detector_args(serve)
    add_mining_args(serve)
    add_parallel_args(serve)
    serve.add_argument("--resume", default=False, action="store_true",
                       help="restore the fleet from the configured "
                       "checkpoint file and continue that run "
                       "mid-stream (cold start when no checkpoint "
                       "exists yet)")
    serve.add_argument("--host", default=None,
                       help="bind address (default from [service] "
                       "host, else 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="HTTP port (0 = ephemeral; default from "
                       "[service] port, else 8181)")
    serve.add_argument("--ingest-port", type=int, default=None,
                       help="enable the TCP line-ingest socket on this "
                       "port (each line one header-less CSV flow row)")
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="durable checkpoint file (overrides "
                       "[service] checkpoint_path)")
    serve.add_argument("--checkpoint-every", type=positive_int,
                       default=None, metavar="N",
                       help="checkpoint every N accepted ingest "
                       "batches (overrides [service] "
                       "checkpoint_every)")
    serve.add_argument("--checkpoint-sync", default=None,
                       action="store_true",
                       help="fsync every checkpoint write (power-loss "
                       "durability; kill-safe resume needs only the "
                       "default atomic rename)")
    serve.add_argument("--origin", type=float, default=0.0,
                       help="timestamp of interval 0")
    serve.add_argument("--pipelines", type=positive_int, default=None,
                       metavar="N",
                       help="run N generated pipelines (link0..linkN-1) "
                       "on the base config; mutually exclusive with "
                       "[fleet.pipelines.<name>] sections in --config")
    serve.add_argument("--route", default=None, metavar="SPEC",
                       help="routing spec: a flow column ('dst_ip'), a "
                       "'column%%N' shard, or a registered router "
                       f"(default: {DEFAULT_ROUTE_COLUMN} hash-sharded "
                       "over the pipelines)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="directory of per-pipeline incident stores "
                       "(required for checkpointing: durable resume "
                       "needs durable stores)")
    serve.add_argument("--keep-extractions", default=False,
                       action=TrackedTrueAction,
                       help="retain every extraction result in memory "
                       "for the whole daemon lifetime (the library "
                       "default; the service reads stores and "
                       "counters, so long-lived daemons run flat "
                       "without it)")
    serve.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.service.supervisor import run_service

    run_cfg = run_config(args)
    base = run_cfg.base
    given = {
        "host": args.host,
        "port": args.port,
        "ingest_port": args.ingest_port,
        "checkpoint_path": args.checkpoint,
        "checkpoint_every": args.checkpoint_every,
        "checkpoint_sync": args.checkpoint_sync,
    }
    settings = dataclasses.replace(
        run_cfg.service,
        **{k: v for k, v in given.items() if v is not None},
    )
    # The daemon always runs a live registry: /metrics is part of its
    # contract, not an opt-in export.  One registry and one tracer,
    # for the fleet and the federator alike.
    registry = MetricsRegistry(buckets=base.obs.histogram_buckets)
    tracer = Tracer() if base.obs.trace_path is not None else None
    # A daemon without explicit pipelines watches one link.
    fleet_args = fleet_arguments(args, run_cfg, unconfigured=1)
    with contextlib.ExitStack() as stack:
        federator = (
            stack.enter_context(open_federator(
                base,
                run_cfg.federation,
                seed=args.seed,
                interval_seconds=args.interval_seconds,
                origin=args.origin,
                metrics=registry,
                tracer=tracer,
            ))
            if run_cfg.federation.configured
            else None
        )
        fleet = stack.enter_context(
            FleetManager(**fleet_args, metrics=registry, tracer=tracer)
        )
        run_service(
            fleet, settings, resume=args.resume, federator=federator
        )
    return 0
