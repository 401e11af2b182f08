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
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_fleet_args,
    fleet_options,
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
    add_config_flags(serve, "mining")
    serve.add_argument("--resume", default=False, action="store_true",
                       help="restore the fleet from the configured "
                       "checkpoint file and continue that run "
                       "mid-stream (cold start when no checkpoint "
                       "exists yet)")
    add_config_flags(serve, "service")
    add_fleet_args(serve)
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="directory of per-pipeline incident stores "
                       "(required for checkpointing: durable resume "
                       "needs durable stores)")
    serve.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    run_cfg = run_config(args)
    api.serve(run_cfg, resume=args.resume, **fleet_options(args, run_cfg))
    return 0
