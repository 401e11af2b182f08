"""Record routing: which pipeline of a fleet sees which flow.

A *router* maps every row of a :class:`~repro.flows.table.FlowTable`
chunk to the index of the pipeline that must process it.  The
:class:`~repro.fleet.manager.FleetManager` splits each incoming chunk
by those indices and feeds every pipeline exactly its own share - in
arrival order, which is what makes a fleet pipeline's output identical
to a solo run over the same subset.

Routers resolve through :data:`repro.registry.routers`, so third-party
routing strategies plug in like miners and sinks.  A registered entry
is a *factory*::

    factory(arg: str | None, n_pipelines: int) -> router
    router(table: FlowTable) -> numpy integer array of len(table)

and :func:`resolve_route` accepts four spellings:

* a callable - used directly as the router;
* ``"dst_ip%4"`` - shard by ``dst_ip`` modulo 4 (the count must match
  the fleet's pipeline count; it exists so run configs fail loudly
  when the two drift apart);
* ``"hash:dst_ip"`` / any ``"name:arg"`` - a registered factory with
  an argument;
* ``"dst_ip"`` - a bare registered router name, or a flow column
  (shorthand for hash-sharding on it over every pipeline).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigError
from repro.flows.table import ALL_COLUMNS, FlowTable

#: The router contract: one pipeline index per row.
Router = Callable[[FlowTable], np.ndarray]

#: A registered router factory.
RouterFactory = Callable[[str | None, int], Router]

#: Route of a run that names none but cannot take per-chunk tags (the
#: ``fleet`` verb, the daemon, a combined trace split across sites).
DEFAULT_ROUTE_COLUMN = "dst_ip"


def hash_router(arg: str | None, n_pipelines: int) -> Router:
    """Shard rows by ``column % n_pipelines`` (the built-in "hash").

    Deterministic, stateless, and balanced for high-cardinality
    columns - the fleet analogue of the paper's per-link partitioning.
    """
    if not arg:
        raise ConfigError(
            "hash router needs a column, e.g. route='hash:dst_ip' "
            "or route='dst_ip'"
        )
    if arg not in ALL_COLUMNS:
        raise ConfigError(
            f"unknown routing column {arg!r}; "
            f"flow columns: {', '.join(ALL_COLUMNS)}"
        )
    column = arg

    def route(table: FlowTable) -> np.ndarray:
        return np.asarray(
            table.column(column) % n_pipelines, dtype=np.int64
        )

    return route


def resolve_route(spec: str | Router, n_pipelines: int) -> Router:
    """Turn a route spec into a router callable (see module docstring).

    Args:
        spec: callable, ``"column"``, ``"column%N"``, ``"name"``, or
            ``"name:arg"``.
        n_pipelines: how many pipelines the fleet routes into; the
            router must produce indices in ``[0, n_pipelines)``.
    """
    if n_pipelines < 1:
        raise ConfigError(f"n_pipelines must be >= 1: {n_pipelines}")
    if callable(spec):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ConfigError(
            f"route must be a string spec or a callable, got {spec!r}"
        )
    from repro.registry import routers

    if ":" in spec:
        name, _, arg = spec.partition(":")
        return routers.get(name)(arg or None, n_pipelines)
    if "%" in spec:
        column, _, count = spec.partition("%")
        try:
            declared = int(count)
        except ValueError:
            raise ConfigError(
                f"bad shard count in route {spec!r}: expected "
                f"'column%N' with integer N"
            ) from None
        if declared != n_pipelines:
            raise ConfigError(
                f"route {spec!r} shards into {declared} pipelines but "
                f"the fleet has {n_pipelines}"
            )
        return routers.get("hash")(column, n_pipelines)
    if spec in routers:
        return routers.get(spec)(None, n_pipelines)
    if spec in ALL_COLUMNS:
        return routers.get("hash")(spec, n_pipelines)
    raise ConfigError(
        f"unknown route {spec!r}: expected a flow column "
        f"({', '.join(ALL_COLUMNS)}), 'column%N', or a registered "
        f"router ({', '.join(sorted(routers.names())) or 'none'})"
    )


def route_indices(
    router: Router, table: FlowTable, n_pipelines: int, misrouted=None
) -> np.ndarray:
    """``router``'s pipeline index per row of ``table``, validated: a
    router is third-party code, and anything but one integer in
    ``[0, n_pipelines)`` per row (which would silently match no
    pipeline) raises :class:`ConfigError`.  Out-of-range rows are first
    counted into ``misrouted`` (the fleet's counter), when given."""
    indices = np.asarray(router(table))
    if indices.shape != (len(table),):
        raise ConfigError(
            f"router returned {indices.shape} indices for "
            f"{len(table)} flows"
        )
    if len(indices) and not np.issubdtype(indices.dtype, np.integer):
        raise ConfigError(
            f"router must return integer pipeline indices, "
            f"got dtype {indices.dtype}"
        )
    if len(indices) and (
        indices.min() < 0 or indices.max() >= n_pipelines
    ):
        if misrouted is not None:
            bad = (indices < 0) | (indices >= n_pipelines)
            misrouted.inc(int(bad.sum()))
        raise ConfigError(
            f"router produced indices outside [0, {n_pipelines}): "
            f"[{indices.min()}, {indices.max()}]"
        )
    return indices


def _register_builtin_routers() -> None:
    from repro.registry import routers

    routers.register("hash", hash_router, replace=True)


_register_builtin_routers()

__all__ = [
    "DEFAULT_ROUTE_COLUMN", "Router", "RouterFactory",
    "hash_router", "resolve_route", "route_indices",
]
