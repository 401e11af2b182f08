"""Multi-pipeline fleet execution (`repro.fleet`).

The paper's Fig. 3 pipeline is defined per monitored link; this package
runs N of them as one service: a :class:`FleetManager` owns one named
:class:`~repro.core.session.ExtractionSession` per link, routes records
by a key column / shard spec / registered router
(:mod:`repro.fleet.routing`, pluggable via
:data:`repro.registry.routers`), keeps per-pipeline incident stores,
and merges + re-ranks incidents fleet-wide.

Entry points: :func:`repro.api.open_fleet`, the ``repro-extract fleet``
CLI subcommand, and declarative ``[fleet]`` / ``[fleet.pipelines.<name>]``
TOML sections (:class:`repro.core.config.FleetSettings`).
"""

from repro.fleet.manager import FleetIncident, FleetManager
from repro.fleet.routing import Router, RouterFactory, hash_router, resolve_route

__all__ = [
    "FleetIncident",
    "FleetManager",
    "Router",
    "RouterFactory",
    "hash_router",
    "resolve_route",
]
