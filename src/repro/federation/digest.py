"""Interval digests - the federation wire format.

A digest is everything one vantage point says about one measurement
interval: per monitored feature, the sorted distinct values observed
and the exact number of flows carrying each.  Everything the federator
needs follows from those two arrays.  The ``C`` clone histograms the
detector bank scores are a hash-binning of the counts (the clone hash
functions derive from the schema, exactly as the detectors' own do),
the bin->values back-map reads the observed values, and a voted
value's support is its count.  Digests are the *unit of inter-site
communication*: collectors ship them, the federator merges them, and
nothing O(flows) ever crosses a site boundary.

Two properties carry the subsystem's correctness contract:

* **Exact mergeability.**  A merge unions the observed values and adds
  the counts of a value both sides saw, so merging digests is
  byte-identical to digesting the concatenated flow streams - merge
  order and grouping cannot matter (``tests/federation`` asserts both
  byte-for-byte).  The clone histograms derived from a merged digest
  equal the sum of the per-site histograms, bin for bin.
* **Versioned refusal.**  The canonical-JSON wire document carries a
  schema version plus the sketch compatibility keys (seed, clones,
  bins, feature list).  Any mismatch is refused with a typed error -
  merging incompatible digests would silently fabricate counts, the
  exact failure mode the :class:`~repro.errors.SketchError` guard
  exists to prevent.
"""

from __future__ import annotations

import itertools
import json
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.detection.detector import DetectorConfig, clone_hashes
from repro.detection.features import DETECTOR_FEATURES, Feature
from repro.errors import FederationError, SketchError
from repro.sketch.cloning import ValueCounts, clone_snapshots
from repro.sketch.distinct import union_all
from repro.sketch.hashing import HashMatrix
from repro.sketch.histogram import HistogramSnapshot
from repro.state import (
    canonical_json,
    count,
    integer,
    listof,
    mapping,
    pack_array,
    packed_view,
    read_fields,
    record,
    text,
)

#: Schema version of the digest wire document.  Bump it whenever the
#: digest payload changes shape; foreign versions are rejected, never
#: migrated silently (the same discipline as service checkpoints -
#: see CONTRIBUTING).  Version 3 carries each feature's observed values
#: and their exact flow counts; the clone histograms and the count-min
#: sketch of version 2 are derived from them or gone.
DIGEST_VERSION = 3

# The count-min geometry and seed below no longer shape a digest.  The
# perf ledger's replay (``benchmarks/perf/workloads.py``) is their last
# importer; they leave with ROADMAP item 2.
DEFAULT_CM_WIDTH = 2048
DEFAULT_CM_DEPTH = 4


def countmin_seed(seed: int, feature: Feature) -> int:
    """Seed of the per-feature count-min hash family under ``seed``
    (offset past
    :func:`~repro.detection.detector.clone_seed`'s feature salts)."""
    salt = zlib.crc32(feature.value.encode()) & 0xFFFF
    return seed * 131 + 0x10000 + salt


@dataclass(frozen=True, slots=True)
class DigestSchema:
    """The sketch compatibility keys every digest of a federation shares.

    Two digests merge only when their schemas are equal: equal seeds
    and geometry make the derived clone hash functions identical, which
    is what makes merged detection exact.
    """

    seed: int
    clones: int
    bins: int
    features: tuple[str, ...]

    @classmethod
    def build(
        cls, config: DetectorConfig, features: tuple[Feature, ...], seed: int
    ) -> "DigestSchema":
        return cls(
            seed=seed,
            clones=config.clones,
            bins=config.bins,
            features=tuple(f.short_name for f in features),
        )

    def clone_hashes(self, feature: Feature) -> HashMatrix:
        """``feature``'s clone hash functions - its detector's own
        draw (:func:`~repro.detection.detector.clone_hashes`)."""
        return clone_hashes(self.seed, feature, self.clones, self.bins)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "clones": self.clones,
            "bins": self.bins,
            "features": list(self.features),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "DigestSchema":
        return cls(
            **read_fields(
                "digest schema block", doc, FederationError,
                **_SCHEMA_KINDS,
            )
        )


_NAMES = listof(text, into=tuple)
_SCHEMA_KINDS = {
    "seed": count,
    "clones": integer(1),
    "bins": integer(1),
    "features": _NAMES,
}

#: A packed array's ``data`` member as rendered with the payload left
#: out (:meth:`IntervalDigest.to_json` splices the payload back in).
_EMPTY_DATA = '"data":""'

#: One feature document: its sorted distinct values and their counts,
#: each left as sent until ``from_dict`` copies it into its column.
_FEATURE = record(
    observed=packed_view(np.uint64), counts=packed_view(np.int64)
)

#: Past this, an int64 sum of counts may wrap.
_WRAP = 1 << 63


def _total(counts: np.ndarray) -> int:
    """The exact sum of positive ``counts`` (an int64 sum wraps past
    2^63, which a crafted document could aim at ``flow_count``)."""
    if counts.size == 0 or counts.size * int(counts.max()) < _WRAP:
        return int(counts.sum())
    return sum(counts.tolist())


def _column(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    """``parts`` widened into one read-only ``dtype`` array."""
    if not parts:
        return np.empty(0, dtype)
    column = np.concatenate(parts, dtype=dtype, casting="safe")
    column.setflags(write=False)
    return column


def _aligned(name: str, observed: np.ndarray, counts: np.ndarray) -> None:
    if len(observed) != len(counts):
        raise FederationError(
            f"feature {name!r} carries {len(counts)} counts for "
            f"{len(observed)} observed values"
        )


def _check_feature(
    name: str, observed: np.ndarray, counts: np.ndarray, flow_count: int
) -> None:
    """Refuse one feature's payload unless it is sorted, distinct,
    positive counts of ``flow_count`` flows."""
    # Merging unions observed sets as sorted runs.
    if np.any(observed[1:] <= observed[:-1]):
        raise FederationError(
            f"feature {name!r} observed values are not sorted and distinct"
        )
    # An observed value was seen in at least one flow, and every flow
    # carries exactly one value of every feature.
    if counts.size and counts.min() < 1:
        raise FederationError(
            f"feature {name!r} counts must be positive flow counts: "
            f"minimum {counts.min()}"
        )
    total = _total(counts)
    if total != flow_count:
        raise FederationError(
            f"self-contradictory payload: feature {name!r} counts total "
            f"{total} flows, the digest declares {flow_count}"
        )


def _columns_pass(
    values: np.ndarray, counts: np.ndarray, ends: list[int], flow_count: int
) -> bool:
    """Whether every feature - the slice of ``values`` and ``counts``
    up to its entry of ``ends`` - passes :func:`_check_feature`, decided
    in one pass over the two columns.  ``False`` also when a total may
    not be exact in int64; :func:`_check_feature` then decides."""
    size = values.size
    if flow_count >= _WRAP:
        return False
    if size == 0:
        return flow_count == 0
    # Ends never fall, so an empty feature repeats one (or ends at 0)
    # - and cannot total flow_count > 0.
    if len({0, *ends}) <= len(ends):
        return False
    rising = values[1:] > values[:-1]
    # A feature's first value may sit below the previous feature's last.
    rising[[end - 1 for end in ends[:-1]]] = True
    if not rising.all() or counts.min() < 1:
        return False
    if size * int(counts.max()) >= _WRAP:
        return False
    totals = np.add.reduceat(counts, [0, *ends[:-1]])
    return set(totals.tolist()) == {flow_count}


def federation_features(
    features: tuple[Feature, ...] | str | None,
) -> tuple[Feature, ...]:
    """Resolve and validate the monitored features of a federation.

    Only built-in :class:`Feature` members federate: digests carry
    features by short name, and the mining step re-encodes voted values
    with :func:`~repro.mining.items.encode_item`, both of which need
    the closed feature vocabulary.
    """
    from repro.detection.features import resolve_features

    resolved = resolve_features(
        DETECTOR_FEATURES if features is None else features
    )
    for feature in resolved:
        if not isinstance(feature, Feature):
            raise FederationError(
                f"custom feature {feature!r} cannot federate: digests "
                f"carry features by built-in short name"
            )
    return tuple(resolved)


class IntervalDigest:
    """One interval's value counts from one or more vantage points.

    ``value_counts`` maps each feature's short name to ``(observed,
    counts)``: the sorted distinct uint64 values of the interval and
    the int64 number of flows carrying each.  Immutable: both arrays
    are made read-only, and :meth:`merge` returns a new digest.
    """

    __slots__ = ("schema", "interval", "sites", "flow_count", "_values")

    def __init__(
        self,
        schema: DigestSchema,
        interval: int,
        sites: tuple[str, ...],
        flow_count: int,
        value_counts: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if interval < 0:
            raise FederationError(f"interval must be >= 0: {interval}")
        if not sites:
            raise FederationError("a digest must name at least one site")
        if len(set(sites)) != len(sites):
            raise FederationError(f"duplicate sites in digest: {sites}")
        if flow_count < 0:
            raise FederationError(
                f"flow count must be >= 0: {flow_count}"
            )
        values: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in schema.features:
            if name not in value_counts:
                raise FederationError(
                    f"digest missing value counts for feature {name!r}"
                )
            observed, counts = value_counts[name]
            _aligned(name, observed, counts)
            observed.setflags(write=False)
            counts.setflags(write=False)
            values[name] = (observed, counts)
        self.schema = schema
        self.interval = interval
        self.sites = tuple(sorted(sites))
        self.flow_count = flow_count
        self._values = values

    # ------------------------------------------------------------------
    def supports(self, feature: Feature, values: np.ndarray) -> np.ndarray:
        """The exact flow count of each of ``values`` (0 for a value
        this interval did not observe)."""
        observed, counts = self._values[feature.short_name]
        wanted = np.asarray(values, dtype=np.uint64)
        if observed.size == 0:
            return np.zeros(wanted.size, dtype=np.int64)
        at = np.minimum(np.searchsorted(observed, wanted), observed.size - 1)
        return np.where(observed[at] == wanted, counts[at], 0)

    @property
    def value_counts(self) -> dict[str, ValueCounts]:
        """Each feature's ``(observed, counts)``, keyed by short name:
        what a detector bank's ``observe_counts`` bins."""
        return dict(self._values)

    def clone_snapshots(self, feature: Feature) -> list[HistogramSnapshot]:
        """The ``C`` clone histograms of one feature, binned from its
        counts by the schema's clone hash functions; they share the
        one observed array."""
        return clone_snapshots(
            self.schema.clone_hashes(feature),
            *self._values[feature.short_name],
        )

    def snapshots_by_feature(
        self, features: tuple[Feature, ...]
    ) -> dict[Feature, list[HistogramSnapshot]]:
        """Key the clone snapshots by :class:`Feature` for a detector
        bank's ``observe_snapshots`` (wire documents key by short
        name).  The federator bins :attr:`value_counts` instead; the
        perf ledger's frozen replay is the last caller."""
        return {feature: self.clone_snapshots(feature) for feature in features}

    # ------------------------------------------------------------------
    def merge(self, other: "IntervalDigest") -> "IntervalDigest":
        """The two-digest :meth:`merge_all`."""
        return IntervalDigest.merge_all((self, other))

    @staticmethod
    def merge_all(digests: Sequence["IntervalDigest"]) -> "IntervalDigest":
        """Combine one or more digests of the same interval into one.

        Exact, order-invariant, and associative: each feature's
        observed values are unioned and the counts of a shared value
        added (one k-way :func:`~repro.sketch.distinct.union_all` per
        feature), flow counts sum, site sets union (kept sorted).
        Refuses mismatched sketch schemas
        (:class:`~repro.errors.SketchError`), different intervals, and
        overlapping site sets - each of which would double-count or
        fabricate traffic.  One digest is returned as is.
        """
        first = digests[0]
        sites: set[str] = set()
        for digest in digests:
            if digest.schema != first.schema:
                raise SketchError(
                    f"cannot merge digests with incompatible sketch "
                    f"parameters: {first.schema} vs {digest.schema}"
                )
            if digest.interval != first.interval:
                raise FederationError(
                    f"cannot merge digests of different intervals: "
                    f"{first.interval} vs {digest.interval}"
                )
            overlap = sites.intersection(digest.sites)
            if overlap:
                raise FederationError(
                    f"sites {sorted(overlap)} appear in more than one "
                    f"digest; merging would double-count their traffic"
                )
            sites.update(digest.sites)
        if len(digests) == 1:
            return first
        return IntervalDigest(
            schema=first.schema,
            interval=first.interval,
            sites=tuple(sites),
            flow_count=sum(digest.flow_count for digest in digests),
            value_counts={
                name: union_all([digest._values[name] for digest in digests])
                for name in first.schema.features
            },
        )

    # ------------------------------------------------------------------
    # Canonical wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe wire document."""
        return {
            "version": DIGEST_VERSION,
            "schema": self.schema.to_dict(),
            "interval": self.interval,
            "sites": list(self.sites),
            "flow_count": self.flow_count,
            "features": {
                name: {
                    "observed": pack_array(observed),
                    "counts": pack_array(counts),
                }
                for name, (observed, counts) in self._values.items()
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering: byte-stable for identical state
        (sorted keys, minimal separators), so digests diff and replay
        like checkpoint documents.

        Exactly ``canonical_json(self.to_dict())``, in one pass over
        the small part: the document is rendered with every packed
        array's ``data`` left empty, and the base64 payloads - which
        need no escape - are spliced into those slots, in the sorted
        key order the rendering put them in.
        """
        doc = self.to_dict()
        payloads: list[str] = []
        for name in sorted(doc["features"]):
            for key in ("counts", "observed"):
                array = doc["features"][name][key]
                payloads.append(array["data"])
                array["data"] = ""
        # Only a packed array renders an empty "data" member: every
        # quote inside a rendered string is escaped.
        slots = canonical_json(doc).split(_EMPTY_DATA)
        body = [slots[0]]
        for payload, rest in zip(payloads, slots[1:]):
            body += ('"data":"', payload, '"', rest)
        return "".join(body)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "IntervalDigest":
        """Rebuild a digest, refusing foreign wire versions and value
        counts that do not describe ``flow_count`` flows.

        Every feature's observed values are copied into one uint64
        column and its counts into one int64 column, in schema order,
        and each feature keeps read-only views of its slices; the
        checks run once over the two columns, and the features are
        walked only to name the one that fails."""
        if not isinstance(doc, dict):
            raise FederationError(
                f"digest must be a JSON object, got {type(doc).__name__}"
            )
        version = read_fields(
            "digest", doc, FederationError, version=lambda value: value
        )["version"]
        if type(version) is not int or version != DIGEST_VERSION:
            raise FederationError(
                f"digest wire version {version!r} != {DIGEST_VERSION}; "
                f"this build cannot read it (digests are rejected "
                f"across schema changes, never migrated silently)"
            )
        fields = read_fields(
            "digest", doc, FederationError,
            schema=DigestSchema.from_dict,
            interval=count,
            sites=_NAMES,
            flow_count=count,
            features=mapping,
        )
        schema, flow_count = fields["schema"], fields["flow_count"]
        names = schema.features
        payload = read_fields(
            "digest features", fields["features"], FederationError,
            **dict.fromkeys(names, _FEATURE),
        )
        observed = [payload[name]["observed"] for name in names]
        counts = [payload[name]["counts"] for name in names]
        sizes = [part.size for part in observed]
        if sizes != [part.size for part in counts]:
            for name, values, tallies in zip(names, observed, counts):
                _aligned(name, values, tallies)
        ends = list(itertools.accumulate(sizes))
        value_column = _column(observed, np.uint64)
        count_column = _column(counts, np.int64)
        digest = cls(
            schema=schema,
            interval=fields["interval"],
            sites=fields["sites"],
            flow_count=flow_count,
            value_counts={
                name: (value_column[start:end], count_column[start:end])
                for name, start, end in zip(names, [0, *ends], ends)
            },
        )
        if not _columns_pass(value_column, count_column, ends, flow_count):
            # Name the first feature that fails (or, past int64, sum
            # the counts exactly and pass).
            for name, (values, tallies) in digest._values.items():
                _check_feature(name, values, tallies, flow_count)
        return digest

    @classmethod
    def from_json(cls, text: str | bytes) -> "IntervalDigest":
        """Parse one canonical wire document."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise FederationError(
                f"digest is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(doc)


def read_digests(
    lines: Iterable[str], name: str
) -> list[tuple[IntervalDigest, int]]:
    """Parse digest JSONL (one wire document per line, blank lines
    skipped) into ``(digest, wire bytes)`` pairs - the one reader of
    wire lines, for a ``POST /digest`` body and the files of
    ``federate merge`` alike.  A malformed line is refused as
    ``<name>:<line number>: ...`` before the caller applies anything.
    """
    parsed: list[tuple[IntervalDigest, int]] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            digest = IntervalDigest.from_json(line)
        except (FederationError, SketchError) as exc:
            raise type(exc)(f"{name}:{line_no}: {exc}") from exc
        parsed.append((digest, len(line.encode("utf-8"))))
    return parsed
