"""The batch federation tier: traces in, global incident ranking out.

Glue above :class:`~repro.federation.collector.Collector` and
:class:`~repro.federation.federator.Federator` for the common offline
shape: one trace per vantage point (or one combined trace split by a
fleet routing spec), collectors digesting in lockstep, one federator
merging and detecting, and the existing incident machinery ranking the
result.  This is what ``repro-extract federate`` and
:func:`repro.api.federate` run.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.config import ExtractionConfig, FederationSettings
from repro.core.report import ExtractionReport
from repro.errors import FederationError
from repro.federation.collector import Collector
from repro.federation.digest import IntervalDigest, read_digests
from repro.federation.federator import FederatedInterval, Federator
from repro.fleet.routing import Router, resolve_route, route_indices
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.flows.table import FlowTable
from repro.incidents.rank import RankedIncident
from repro.incidents.store import IncidentStore, open_store
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class FederationResult:
    """Everything a federated run produced."""

    sites: tuple[str, ...]
    digests: int
    intervals: tuple[FederatedInterval, ...]
    reports: tuple[ExtractionReport, ...]
    incidents: tuple[RankedIncident, ...] = field(default_factory=tuple)

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    def alarm_intervals(self) -> list[int]:
        """Released intervals on which the merged detection alarmed."""
        return [fi.interval for fi in self.intervals if fi.alarm]

    def straggler_intervals(self) -> list[int]:
        """Released intervals missing at least one expected site."""
        return [fi.interval for fi in self.intervals if fi.stragglers]


def split_trace(
    trace: FlowTable,
    sites: tuple[str, ...],
    route: str | Router,
) -> dict[str, FlowTable]:
    """Split one combined trace into per-site traces by a fleet
    routing spec (``"column"``, ``"column%N"``, a named router, or a
    router callable) - the multi-PoP capture file read back as if each
    site had recorded its own share."""
    if not sites:
        raise FederationError("need at least one site to split into")
    indices = route_indices(
        resolve_route(route, len(sites)), trace, len(sites)
    )
    return {
        site: trace.select(indices == k)
        for k, site in enumerate(sites)
    }


def read_digest_files(
    paths: Sequence[str | os.PathLike[str]],
) -> list[tuple[IntervalDigest, int]]:
    """Every ``(digest, wire bytes)`` pair of the digest JSONL files
    ``federate collect`` wrote, in argument then line order."""
    parsed: list[tuple[IntervalDigest, int]] = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                parsed.extend(read_digests(handle, os.fspath(path)))
        except (OSError, UnicodeDecodeError) as exc:
            # UnicodeDecodeError: a binary trace where a digest file
            # belongs.
            raise FederationError(
                f"cannot read digest file {path}: {exc}"
            ) from exc
    if not parsed:
        raise FederationError(
            f"no digests found in {', '.join(map(os.fspath, paths))}"
        )
    return parsed


def federate_traces(
    federator: Federator,
    traces: Mapping[str, FlowTable],
    *,
    profile: str = "balanced",
    top: int | None = None,
    tracer: Tracer | None = None,
) -> FederationResult:
    """Digest each of ``federator.sites'`` traces with a collector on
    the federator's own sketch schema and federate the digests; sites
    whose traces end early surface as stragglers, as they would live."""
    schema = federator.schema
    ambient = tracer if tracer is not None else NULL_TRACER
    with ambient.span("federation.run", sites=len(federator.sites)):
        digests: list[tuple[IntervalDigest, int | None]] = []
        for site in federator.sites:
            collector = Collector(
                site=site,
                config=federator.config,
                features=federator.features,
                seed=schema.seed,
                tracer=tracer,
            )
            digests.extend(
                (digest, None)
                for digest in collector.run(
                    traces[site], federator.interval_seconds,
                    origin=federator.origin,
                )
            )
        return federate_digests(federator, digests, profile=profile, top=top)


def federate_digests(
    federator: Federator,
    digests: Sequence[tuple[IntervalDigest, int | None]],
    *,
    profile: str = "balanced",
    top: int | None = None,
) -> FederationResult:
    """Deliver ``(digest, wire bytes)`` pairs to ``federator``, flush
    it, and rank what it extracted."""
    released = federator.add_all(digests)
    released.extend(federator.finish())
    return FederationResult(
        sites=federator.sites,
        digests=len(digests),
        intervals=tuple(released),
        reports=tuple(federator.reports),
        incidents=tuple(federator.incidents(profile=profile, top=top)),
    )


@contextlib.contextmanager
def open_federator(
    base: ExtractionConfig,
    settings: FederationSettings,
    *,
    sites: Sequence[str] | None = None,
    store: IncidentStore | str | os.PathLike[str] | None = None,
    seed: int = 0,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> Iterator[Federator]:
    """Build the :class:`Federator` a run config describes, with its
    incident store, and release the store on exit.

    The single wiring behind :func:`repro.api.federate` and
    :func:`repro.api.serve` (and so ``repro-extract federate merge``
    and ``serve``).  ``base`` supplies the detector
    geometry, the features and the incident-correlation knobs;
    ``settings`` the ``[federation]`` table, support floor and straggler
    grace included.  ``sites`` and ``store`` override the table when
    not ``None``.  A ``store`` given as an
    open :class:`IncidentStore` stays the caller's to close; a path -
    the argument's or ``[federation] store_path`` - is opened here with
    the base ``[incidents]`` knobs and closed when the block exits.
    Without either, the federator's store is a private ``:memory:`` one
    (same knobs) that lives as long as the federator.
    """
    target = store if store is not None else settings.store_path
    opened: IncidentStore | None = None
    if not isinstance(target, IncidentStore):
        target = open_store(
            ":memory:" if target is None else os.fspath(target),
            jaccard=base.incidents.jaccard,
            quiet_gap=base.incidents.quiet_gap,
        )
        if target.path != ":memory:":
            opened = target
    try:
        yield Federator(
            sites=tuple(sites) if sites is not None else settings.sites,
            config=base.detector,
            features=base.features,
            seed=seed,
            interval_seconds=interval_seconds,
            origin=origin,
            min_support=settings.min_support,
            straggler_grace=settings.straggler_grace,
            store=target,
            metrics=metrics,
            tracer=tracer,
        )
    finally:
        if opened is not None:
            opened.close()
