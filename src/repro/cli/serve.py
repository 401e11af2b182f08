"""``repro-extract serve`` - the long-running extraction daemon.

The argv shell over :func:`repro.api.serve`, which wraps a
:class:`~repro.fleet.manager.FleetManager` in the stdlib-only HTTP/TCP
service (:mod:`repro.service`): ``POST /ingest`` and the
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

from repro import api
from repro.cli._common import (
    TrackedAction,
    TrackedTrueAction,
    add_config_arg,
    add_detector_args,
    add_fleet_args,
    add_mining_args,
    fleet_options,
    positive_int,
    run_config,
)


def add_parser(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the extraction daemon: HTTP/TCP ingest, incident "
        "queries, Prometheus metrics, durable checkpoint resume",
    )
    add_config_arg(serve)
    add_detector_args(serve)
    add_mining_args(serve)
    serve.add_argument("--resume", default=False, action="store_true",
                       help="restore the fleet from the configured "
                       "checkpoint file and continue that run "
                       "mid-stream (cold start when no checkpoint "
                       "exists yet)")
    serve.add_argument("--host", default=None, action=TrackedAction,
                       help="bind address (default from [service] "
                       "host, else 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       action=TrackedAction,
                       help="HTTP port (0 = ephemeral; default from "
                       "[service] port, else 8181)")
    serve.add_argument("--ingest-port", type=int, default=None,
                       action=TrackedAction,
                       help="enable the TCP line-ingest socket on this "
                       "port (each line one header-less CSV flow row)")
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       action=TrackedAction,
                       help="durable checkpoint file (overrides "
                       "[service] checkpoint_path)")
    serve.add_argument("--checkpoint-every", type=positive_int,
                       default=None, metavar="N", action=TrackedAction,
                       help="checkpoint every N accepted ingest "
                       "batches (overrides [service] "
                       "checkpoint_every)")
    serve.add_argument("--checkpoint-sync", default=None,
                       action=TrackedTrueAction,
                       help="fsync every checkpoint write (power-loss "
                       "durability; kill-safe resume needs only the "
                       "default atomic rename)")
    add_fleet_args(serve)
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
    run_cfg = run_config(args)
    api.serve(run_cfg, resume=args.resume, **fleet_options(args, run_cfg))
    return 0
