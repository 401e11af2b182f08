"""The federator: merges N vantage points' digests, detects globally.

The "fleet-of-fleets" tier above per-link pipelines: collectors at each
site ship :class:`~repro.federation.digest.IntervalDigest` documents,
and the :class:`Federator` aligns them on interval index, merges each
interval's digests (exact value-count addition), and hands each
merged interval to the pipeline's one interval step
(:meth:`~repro.core.pipeline.AnomalyExtractor.step`) as a
:class:`MergedInterval` - so the network-wide anomaly that no single
link sees clearly still trips the KL detectors.  The federator is a
*source* of closed intervals, exactly like the stream assembler:
detection, gating, counters, report construction,
the store push and incident ageing are the step's, shared with every
single-site run.  Only the input is digest-specific: voted meta-data
values become single-item frequent item-sets whose supports are their
exact flow counts in the merged digest.

The federator's reports have one home, its incident store - the
caller's, or a private in-memory one: :attr:`Federator.reports` and
:meth:`Federator.incidents` read it, and :meth:`Federator.to_state`
carries no report, because the store is their durable record.

Straggler policy: an interval is released as soon as every expected
site has reported, or - watermark - once ``straggler_grace`` later
intervals have been seen from anyone, whichever comes first.  Forced
releases merge whatever arrived, count the missing sites, and move on;
a digest for an already-released interval is refused as stale
(:class:`~repro.errors.FederationError`), mirroring the assembler's
closed-interval late-drop discipline.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass
from typing import Any

from repro.core.config import ExtractionConfig, FederationSettings
from repro.core.pipeline import AnomalyExtractor, ExtractionResult
from repro.core.prefilter import PrefilterResult
from repro.core.report import ExtractionReport
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank, IntervalReport
from repro.detection.metadata import Metadata
from repro.errors import CheckpointError, FederationError, SketchError
from repro.federation.collector import Collector
from repro.federation.digest import DigestSchema, IntervalDigest
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, check_gap, check_grid
from repro.flows.table import FlowTable
from repro.incidents.rank import RankedIncident, rank_incidents
from repro.incidents.store import IncidentStore
from repro.mining.items import encode_item
from repro.mining.result import build_result
from repro.obs.instruments import catalogued
from repro.obs.metrics import MetricsRegistry, time_stage
from repro.obs.trace import Tracer
from repro.state import count, integer, listof, mapping, read_fields, text, tupleof

#: How the digest-only extraction path labels its reports; the normal
#: pipeline writes prefilter/miner names here.
FEDERATED_ALGORITHM = "federated-exact"
FEDERATED_PREFILTER = "federated-vote"


@dataclass(frozen=True, slots=True)
class FederatedInterval:
    """One interval released by the federator."""

    interval: int
    sites: tuple[str, ...]
    stragglers: tuple[str, ...]
    flow_count: int
    alarmed_features: tuple[str, ...]
    report: ExtractionReport | None

    @property
    def alarm(self) -> bool:
        return bool(self.alarmed_features)


class MergedInterval:
    """One interval's merged digest: the sketch-view step input.

    Detection bins the merged value counts (the summary a solo run
    takes from its rows) without ever materializing flows.  Extraction
    is digest-only mining: each voted meta-data value becomes a
    single-item item-set whose support is its exact merged flow count;
    supports below ``min_support`` are discarded just like the miners'
    support floor.  Multi-item conjunctions need the flows and are
    deliberately out of digest scope.
    """

    def __init__(self, digest: IntervalDigest, min_support: int) -> None:
        self.digest = digest
        self._min_support = min_support
        #: Short names of the features that alarmed, kept for the
        #: released interval's summary (the step returns extractions
        #: only, and clean intervals produce none).
        self.alarmed_features: tuple[str, ...] = ()

    def observe(self, bank: DetectorBank) -> IntervalReport:
        report = bank.observe_counts(
            self.digest.value_counts, flow_count=self.digest.flow_count
        )
        self.alarmed_features = tuple(
            f.short_name for f in report.alarmed_features
        )
        return report

    def extract(
        self, report: IntervalReport, metadata: Metadata
    ) -> ExtractionResult | None:
        supports: dict[tuple[int, ...], int] = {}
        for feature, values in metadata.values.items():
            counts = self.digest.supports(feature, values)
            for value, support in zip(values.tolist(), counts.tolist()):
                if support >= self._min_support:
                    supports[(encode_item(feature, value),)] = support
        if not supports:
            return None
        flow_count = self.digest.flow_count
        return ExtractionResult(
            interval=report.interval,
            metadata=metadata,
            # Digest-only extraction never materializes flows; 0
            # selected keeps the field honest rather than guessing
            # from single-item supports.
            prefilter=PrefilterResult(
                flows=FlowTable.empty(),
                mode=FEDERATED_PREFILTER,
                input_flows=flow_count,
                selected_flows=0,
            ),
            # Every single-item set is maximal; build_result puts them
            # in the canonical report order (support descending).
            mining=build_result(
                FEDERATED_ALGORITHM,
                supports,
                supports,
                n_transactions=flow_count,
                min_support=self._min_support,
            ),
            alarmed_features=report.alarmed_features,
        )


def _distinct(bucket: dict[str, IntervalDigest]) -> dict[str, IntervalDigest]:
    """Each digest of an interval's bucket once, under the first of its
    sites in sorted order: a multi-site digest sits in the bucket once
    per site it covers."""
    first: dict[int, str] = {}
    for site in sorted(bucket):
        first.setdefault(id(bucket[site]), site)
    return {site: bucket[site] for site in first.values()}


def _check_unbuffered(digest: IntervalDigest, present: Collection[str]) -> None:
    """Refuse ``digest`` when one of its sites is already ``present``
    for its interval."""
    for site in digest.sites:
        if site in present:
            raise FederationError(
                f"duplicate digest from site {site!r} for "
                f"interval {digest.interval}"
            )


class Federator:
    """Merges per-site digests and steps each merged interval through
    the shared pipeline step."""

    def __init__(
        self,
        sites: tuple[str, ...] | list[str],
        config: DetectorConfig | None = None,
        features: tuple[Feature, ...] | str | None = None,
        seed: int = 0,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        min_support: int = FederationSettings.min_support,
        straggler_grace: int = FederationSettings.straggler_grace,
        store: IncidentStore | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        site_list = tuple(sites)
        if not site_list:
            raise FederationError("a federation needs at least one site")
        if len(set(site_list)) != len(site_list):
            raise FederationError(f"duplicate site names: {site_list}")
        if min_support < 1:
            raise FederationError(
                f"min_support must be >= 1: {min_support}"
            )
        if straggler_grace < 1:
            raise FederationError(
                f"straggler_grace must be >= 1: {straggler_grace}"
            )
        check_grid(interval_seconds, origin)
        self.sites = site_list
        self.config = config or DetectorConfig()
        self.interval_seconds = interval_seconds
        self.origin = origin
        self.min_support = min_support
        self.straggler_grace = straggler_grace
        #: The one holder of the federation's extraction reports: the
        #: caller's store, else a private in-memory one (the fleet's
        #: rule for a pipeline without a store path).
        self.store = (
            store if store is not None else IncidentStore(":memory:")
        )
        # The reference collector pins the digest schema and fills
        # wholly-missing intervals with empty digests; its sentinel
        # site name never appears in released site lists.
        self._reference = Collector(
            site="<federator>",
            config=self.config,
            features=features,
            seed=seed,
        )
        self.features = self._reference.features
        # The step, instrumented as pipeline "federation".  Nothing
        # reads the per-interval detector reports or the extraction
        # list afterwards, so neither is retained: a daemon federating
        # for months stays flat.
        self._extractor = AnomalyExtractor(
            ExtractionConfig(
                detector=self.config,
                features=self.features,
                keep_extractions=False,
            ),
            seed=seed,
            metrics=metrics,
            pipeline="federation",
            tracer=tracer,
            interval_seconds=interval_seconds,
            origin=origin,
            sink=self.store,
            keep_reports=False,
        )
        self._bank = self._extractor.detector_bank
        self._tracer = self._extractor.tracer
        registry = self._extractor.metrics
        self._pending: dict[int, dict[str, IntervalDigest]] = {}
        self._next = 0
        self._max_seen = -1
        self._m_digests = catalogued(
            registry, "repro_federation_digests_total"
        )
        self._m_bytes = catalogued(
            registry, "repro_federation_digest_bytes"
        )
        self._m_merge = catalogued(
            registry, "repro_federation_merge_seconds"
        )
        self._m_merged = catalogued(
            registry, "repro_federation_intervals_merged_total"
        )
        self._m_stragglers = catalogued(
            registry, "repro_federation_stragglers_total"
        )

    # ------------------------------------------------------------------
    @property
    def schema(self) -> DigestSchema:
        """The sketch compatibility schema this federation accepts."""
        return self._reference.schema

    @property
    def next_interval(self) -> int:
        """The next interval index awaiting release."""
        return self._next

    @property
    def pending_intervals(self) -> int:
        """How many intervals are buffered awaiting release."""
        return len(self._pending)

    @property
    def reports(self) -> list[ExtractionReport]:
        """Extraction reports of every alarmed released interval, as
        the store holds them."""
        return self.store.reports()

    # ------------------------------------------------------------------
    def _check_admissible(self, digest: IntervalDigest, cursor: int) -> None:
        """Refuse a digest this federation cannot buffer while its
        release cursor stands at ``cursor``."""
        if digest.schema != self.schema:
            raise SketchError(
                f"digest sketch parameters are incompatible with this "
                f"federation: {digest.schema} vs {self.schema}"
            )
        for site in digest.sites:
            if site not in self.sites:
                raise FederationError(
                    f"digest from unknown site {site!r}; this "
                    f"federation expects {list(self.sites)}"
                )
        if digest.interval < cursor:
            raise FederationError(
                f"stale digest for interval {digest.interval}: the "
                f"federator has already released intervals below "
                f"{cursor}"
            )
        # The straggler watermark releases every interval up to the
        # newest digest: the grid's gap bound, as on flows.
        check_gap(
            "digest", digest.interval, cursor, "the release cursor",
            FederationError,
        )

    def add(
        self, digest: IntervalDigest, wire_bytes: int | None = None
    ) -> list[FederatedInterval]:
        """Accept one site's digest; returns any intervals it released.

        ``wire_bytes`` is the canonical wire size when the caller
        parsed the digest off the wire (feeds the digest-size metric).
        """
        self._check_admissible(digest, self._next)
        bucket = self._pending.setdefault(digest.interval, {})
        _check_unbuffered(digest, bucket)
        for site in digest.sites:
            bucket[site] = digest
            self._m_digests.labels(site).inc()
            if wire_bytes is not None:
                self._m_bytes.labels(site).observe(float(wire_bytes))
        self._max_seen = max(self._max_seen, digest.interval)
        return self._drain(force=False)

    def add_all(
        self, digests: Iterable[tuple[IntervalDigest, int | None]]
    ) -> list[FederatedInterval]:
        """:meth:`add` ``(digest, wire_bytes)`` pairs interval-major
        (every site's interval ``i`` before anyone's ``i + 1``) and
        return what they released: the order a healthy deployment
        approximates, which keeps a replay - digest files, a request
        body, per-site collector runs - free of stale refusals.

        All or nothing: every digest is checked against the release
        cursor and the buffer that the digests before it would leave
        before the first is added, so a refused batch - with the error
        the sequential :meth:`add` calls would raise - has buffered
        and released nothing."""
        ordered = sorted(digests, key=lambda pair: pair[0].interval)
        self._admit([digest for digest, _ in ordered])
        released: list[FederatedInterval] = []
        for digest, wire_bytes in ordered:
            released.extend(self.add(digest, wire_bytes=wire_bytes))
        return released

    def _admit(self, digests: list[IntervalDigest]) -> None:
        """Raise what :meth:`add` would raise on ``digests`` in turn,
        without buffering or releasing any: the cursor and the buffered
        sites move as the releases would move them."""
        cursor, max_seen = self._next, self._max_seen
        present: dict[int, set[str]] = {}
        for digest in digests:
            self._check_admissible(digest, cursor)
            sites = present.setdefault(
                digest.interval, set(self._pending.get(digest.interval, ()))
            )
            _check_unbuffered(digest, sites)
            sites.update(digest.sites)
            max_seen = max(max_seen, digest.interval)
            while self._due(
                cursor, max_seen, present.get(cursor, self._pending.get(cursor, ()))
            ):
                cursor += 1

    def finish(self) -> list[FederatedInterval]:
        """Flush every pending interval (end of stream)."""
        return self._drain(force=True)

    def _due(
        self, interval: int, max_seen: int, present: Collection[str]
    ) -> bool:
        """Whether the cursor's ``interval`` is released: every site is
        ``present``, or ``straggler_grace`` later intervals were seen."""
        return (
            len(present) == len(self.sites)
            or max_seen - interval >= self.straggler_grace
        )

    def _drain(self, force: bool) -> list[FederatedInterval]:
        released: list[FederatedInterval] = []
        while (
            self._pending
            if force
            else self._due(
                self._next, self._max_seen, self._pending.get(self._next, ())
            )
        ):
            released.append(self._release(self._next))
        return released

    def _release(self, interval: int) -> FederatedInterval:
        bucket = self._pending.pop(interval, {})
        missing = tuple(s for s in self.sites if s not in bucket)
        with self._tracer.span(
            "federation.merge",
            interval=interval,
            sites=len(bucket),
            stragglers=len(missing),
        ), time_stage(self._m_merge):
            if missing:
                self._tracer.event(
                    "federation.straggler",
                    interval=interval,
                    missing=",".join(missing),
                )
                for site in missing:
                    self._m_stragglers.labels(site).inc()
            if bucket:
                merged = IntervalDigest.merge_all(
                    list(_distinct(bucket).values())
                )
                sites: tuple[str, ...] = merged.sites
            else:
                merged = self._reference.empty_digest(interval)
                sites = ()
            merged_input = MergedInterval(merged, self.min_support)
            extraction = self._extractor.step(merged_input)
        report = (
            None
            if extraction is None
            else self._extractor.report_for(extraction)
        )
        self._m_merged.inc()
        self._next = interval + 1
        self._max_seen = max(self._max_seen, interval)
        return FederatedInterval(
            interval=interval,
            sites=sites,
            stragglers=missing,
            flow_count=merged.flow_count,
            alarmed_features=merged_input.alarmed_features,
            report=report,
        )

    # ------------------------------------------------------------------
    def incidents(
        self, profile: str = "balanced", top: int | None = None
    ) -> list[RankedIncident]:
        """Correlate and rank the federation's extraction reports."""
        return rank_incidents(
            self.store.correlated(), profile=profile, top=top
        )

    # ------------------------------------------------------------------
    # Checkpointing (same discipline as the fleet's to_state)
    # ------------------------------------------------------------------
    def to_state(self) -> dict[str, Any]:
        """JSON-safe resume state: cursors, buffered digests and the
        detector bank.  The reports are not part of it: the store is
        their durable record."""
        pending: list[list[Any]] = []
        for interval in sorted(self._pending):
            entries = [
                [site, digest.to_dict()]
                for site, digest in _distinct(self._pending[interval]).items()
            ]
            pending.append([interval, entries])
        return {
            "schema": self.schema.to_dict(),
            "next": self._next,
            "max_seen": self._max_seen,
            "pending": pending,
            "bank": self._bank.to_state(),
        }

    def from_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`to_state` data into this federator (which
        must be built with the same sites, config, and seed).

        Also arms the step's resume floor, exactly as a restored
        session does: the store being *ahead* of the checkpoint is the
        normal crash shape, so intervals re-released after the restore
        whose reports are already durable are skipped, not
        re-appended."""
        fields = read_fields(
            "federator checkpoint state", state, CheckpointError,
            schema=DigestSchema.from_dict,
            next=count,
            max_seen=integer(-1),
            pending=listof(
                tupleof(
                    count,
                    listof(tupleof(text, IntervalDigest.from_dict)),
                )
            ),
            bank=mapping,
        )
        if fields["schema"] != self.schema:
            raise CheckpointError(
                f"federator checkpoint was written under sketch schema "
                f"{fields['schema']}, this federation runs "
                f"{self.schema}; restore with the configuration the "
                f"checkpoint was written under"
            )
        next_interval, max_seen = fields["next"], fields["max_seen"]
        pending: dict[int, dict[str, IntervalDigest]] = {}
        try:
            for interval, entries in fields["pending"]:
                for site, digest in entries:
                    if digest.interval != interval or site not in digest.sites:
                        raise FederationError(
                            f"digest of interval {digest.interval} from "
                            f"{list(digest.sites)} is filed under "
                            f"interval {interval}, site {site!r}"
                        )
                    self._check_admissible(digest, next_interval)
                    for covered in digest.sites:
                        pending.setdefault(interval, {})[covered] = digest
        except (FederationError, SketchError) as exc:
            raise CheckpointError(
                f"malformed federator checkpoint state: buffered {exc}"
            ) from exc
        # Every interval seen is either released or still buffered;
        # a larger value would release empty intervals up to it.
        if max_seen != max([next_interval - 1, *pending]):
            raise CheckpointError(
                f"malformed federator checkpoint state: max_seen "
                f"{max_seen} does not follow from next {next_interval} "
                f"and the buffered intervals {sorted(pending)}"
            )
        self._bank.from_state(fields["bank"])
        self._pending = pending
        self._next = next_interval
        self._max_seen = max_seen
        self._extractor.arm_resume_floor()
