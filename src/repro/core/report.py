"""Operator-facing extraction reports.

The output of the pipeline is a short list of maximal item-sets (the
paper's Table II).  This module renders them, and implements the
"trivially sorted out by an administrator" heuristic the paper invokes:
false-positive item-sets are almost always combinations of *common*
feature values - well-known service ports, tiny flow sizes - without a
specific endpoint, so they can be labelled for quick triage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.detection.features import Feature
from repro.errors import ExtractionError, MiningError
from repro.flows.stream import check_grid
from repro.mining.items import FrequentItemset, format_item
from repro.state import canonical_json, count, finite, listof, read_fields, text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import ExtractionResult

#: Ports whose appearance in an item-set suggests ordinary traffic that
#: collided with the meta-data (the paper's examples: 80, 25).
COMMON_SERVICE_PORTS = frozenset(
    {20, 21, 22, 25, 53, 80, 110, 123, 143, 443, 993, 995, 8080}
)

#: Packet counts so small they match a large share of all flows.
COMMON_PACKET_COUNTS = frozenset({1, 2, 3})


_ITEMS = listof(count, into=tuple)
_NAMES = listof(text, into=tuple)


@dataclass(frozen=True, slots=True)
class TriagedItemset:
    """An item-set plus the admin-triage hint."""

    itemset: FrequentItemset
    hint: str  # "suspicious" | "common-service" | "common-size"

    @property
    def looks_benign(self) -> bool:
        return self.hint != "suspicious"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering: encoded items (the round-trip key),
        their human-readable forms, support, and the triage hint."""
        return {
            "items": list(self.itemset.items),
            "rendered": [format_item(i) for i in self.itemset.items],
            "support": self.itemset.support,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TriagedItemset":
        """Inverse of :meth:`to_dict` (``rendered`` is derived and
        ignored)."""
        fields = read_fields(
            "item-set", data, ExtractionError,
            items=_ITEMS,
            support=count,
            hint=text,
        )
        try:
            itemset = FrequentItemset(fields["items"], fields["support"])
        except MiningError as exc:
            raise ExtractionError(f"malformed item-set: {exc}") from exc
        return cls(itemset=itemset, hint=fields["hint"])


def triage(itemset: FrequentItemset) -> TriagedItemset:
    """Attach the triage hint an administrator would apply.

    Heuristic (mirrors the paper's discussion in Sections II-B/III-D):

    * an item-set naming a *specific endpoint* (source or destination
      address) is always "suspicious": the whole point of extraction is
      that normal traffic does not concentrate on one host, so a flood
      on ``{dstIP x, dstPort 80}`` must not be waved through just
      because 80 is a well-known port;
    * an endpoint-free item-set whose port items are all well-known
      service ports is "common-service" (e.g. busy web proxies, mail
      relays);
    * an item-set with neither addresses nor ports - only protocol and
      tiny size items - is "common-size".
    """
    decoded = itemset.as_dict()
    ports = [
        value
        for feature, value in decoded.items()
        if feature in (Feature.SRC_PORT, Feature.DST_PORT)
    ]
    has_endpoint = any(
        feature in (Feature.SRC_IP, Feature.DST_IP) for feature in decoded
    )
    if has_endpoint:
        hint = "suspicious"
    elif ports:
        if all(port in COMMON_SERVICE_PORTS for port in ports):
            hint = "common-service"
        else:
            hint = "suspicious"
    else:
        packets = decoded.get(Feature.PACKETS)
        if packets is None or packets in COMMON_PACKET_COUNTS:
            hint = "common-size"
        else:
            hint = "suspicious"
    return TriagedItemset(itemset=itemset, hint=hint)


def triage_all(itemsets: list[FrequentItemset]) -> list[TriagedItemset]:
    """Triage a full report, preserving order."""
    return [triage(itemset) for itemset in itemsets]


@dataclass(frozen=True)
class ExtractionReport:
    """Serializable snapshot of one interval's extraction.

    This is the unit the incident layer (:mod:`repro.incidents`)
    persists and correlates: everything an operator or a downstream
    consumer needs from an
    :class:`~repro.core.pipeline.ExtractionResult` - item-sets with
    supports and triage hints, detector votes, interval bounds - without
    the raw flow tables and detector state, so it round-trips through
    JSON byte-for-byte.  Equality is plain dataclass equality, which is
    what the replay-equivalence tests lean on.
    """

    interval: int
    start: float
    end: float
    input_flows: int
    selected_flows: int
    prefilter_mode: str
    algorithm: str
    min_support: int
    #: Short names of the features whose detectors alarmed - the
    #: "detector votes" backing this extraction.
    alarmed_features: tuple[str, ...]
    itemsets: tuple[TriagedItemset, ...]

    @property
    def detector_votes(self) -> int:
        """How many feature detectors agreed this interval is anomalous."""
        return len(self.alarmed_features)

    @property
    def suspicious_itemsets(self) -> tuple[TriagedItemset, ...]:
        return tuple(t for t in self.itemsets if not t.looks_benign)

    @classmethod
    def from_result(
        cls,
        result: "ExtractionResult",
        interval_seconds: float,
        origin: float = 0.0,
    ) -> "ExtractionReport":
        """Snapshot an in-memory extraction.

        ``interval_seconds``/``origin`` recover the wall-clock bounds,
        which the pipeline's per-interval result does not carry.  The
        bounds span every interval the extraction mined
        (``result.window_intervals`` - sliding-window streaming mode
        mines the last N together), so they stay consistent with the
        window-wide flow counts and supports.
        """
        check_grid(interval_seconds, origin)
        end = origin + (result.interval + 1) * interval_seconds
        return cls(
            interval=result.interval,
            start=end - result.window_intervals * interval_seconds,
            end=end,
            input_flows=result.prefilter.input_flows,
            selected_flows=result.prefilter.selected_flows,
            prefilter_mode=result.prefilter.mode,
            algorithm=result.mining.algorithm,
            min_support=result.mining.min_support,
            alarmed_features=tuple(
                f.short_name for f in result.alarmed_features
            ),
            itemsets=tuple(triage_all(result.mining.itemsets)),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (one document per interval)."""
        return {
            "interval": self.interval,
            "start": self.start,
            "end": self.end,
            "input_flows": self.input_flows,
            "selected_flows": self.selected_flows,
            "prefilter_mode": self.prefilter_mode,
            "algorithm": self.algorithm,
            "min_support": self.min_support,
            "alarmed_features": list(self.alarmed_features),
            "itemsets": [t.to_dict() for t in self.itemsets],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExtractionReport":
        return cls(
            **read_fields(
                "extraction report", data, ExtractionError,
                interval=count,
                start=finite,
                end=finite,
                input_flows=count,
                selected_flows=count,
                prefilter_mode=text,
                algorithm=text,
                min_support=count,
                alarmed_features=_NAMES,
                itemsets=_ITEMSETS,
            )
        )

    def to_json(self) -> str:
        """Canonical JSON (:func:`~repro.state.canonical_json`) - stable
        enough for the byte-for-byte store replay guarantee."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExtractionReport":
        return cls.from_dict(json.loads(text))


_ITEMSETS = listof(TriagedItemset.from_dict, into=tuple)


def render_itemset_table(itemsets: list[FrequentItemset]) -> str:
    """Render item-sets as an aligned text table (Table II style)."""
    if not itemsets:
        return "(no frequent item-sets)"
    triaged = triage_all(itemsets)
    rows = []
    for entry in triaged:
        rows.append(
            (
                ", ".join(format_item(i) for i in entry.itemset.items),
                str(entry.itemset.support),
                entry.hint,
            )
        )
    width_items = max(len(r[0]) for r in rows)
    width_support = max(len(r[1]) for r in rows + [("", "support", "")])
    lines = [
        f"{'item-set':<{width_items}}  {'support':>{width_support}}  triage",
        f"{'-' * width_items}  {'-' * width_support}  ------",
    ]
    for items, support, hint in rows:
        lines.append(f"{items:<{width_items}}  {support:>{width_support}}  {hint}")
    return "\n".join(lines)
