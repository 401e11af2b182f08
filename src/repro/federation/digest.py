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

import functools
import json
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.detection.detector import DetectorConfig, clone_seed
from repro.detection.features import DETECTOR_FEATURES, Feature
from repro.errors import FederationError, SketchError
from repro.sketch.distinct import union_counts
from repro.sketch.hashing import HashFamily, UniversalHash, hash_rows
from repro.sketch.histogram import HistogramSnapshot
from repro.state import (
    canonical_json,
    count,
    integer,
    listof,
    mapping,
    pack_array,
    packed,
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
    (offset past :func:`clone_seed`'s feature salts)."""
    salt = zlib.crc32(feature.value.encode()) & 0xFFFF
    return seed * 131 + 0x10000 + salt


@functools.lru_cache(maxsize=64)
def _clone_hashes(
    seed: int, clones: int, bins: int, feature: Feature
) -> tuple[UniversalHash, ...]:
    """The clone hash functions of ``feature``'s detector under
    ``seed`` - the family a :class:`~repro.sketch.cloning.CloneSet`
    seeded with :func:`clone_seed` draws."""
    return tuple(HashFamily(bins, seed=clone_seed(seed, feature)).take(clones))


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

    def clone_hashes(self, feature: Feature) -> tuple[UniversalHash, ...]:
        """``feature``'s clone hash functions, drawn once per schema."""
        return _clone_hashes(self.seed, self.clones, self.bins, feature)

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

#: One feature document: its sorted distinct values and their counts.
_FEATURE = record(observed=packed(np.uint64), counts=packed(np.int64))


def _total(counts: np.ndarray) -> int:
    """The exact sum of positive ``counts`` (an int64 sum wraps past
    2^63, which a crafted document could aim at ``flow_count``)."""
    if counts.size == 0 or counts.size * int(counts.max()) < 1 << 63:
        return int(counts.sum())
    return sum(counts.tolist())


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
            if len(observed) != len(counts):
                raise FederationError(
                    f"feature {name!r} carries {len(counts)} counts for "
                    f"{len(observed)} observed values"
                )
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

    def clone_snapshots(self, feature: Feature) -> list[HistogramSnapshot]:
        """The ``C`` clone histograms of one feature, binned from its
        counts by the schema's clone hash functions; they share the
        one observed array."""
        observed, counts = self._values[feature.short_name]
        hashes = self.schema.clone_hashes(feature)
        bins = self.schema.bins
        if observed.size == 0:
            return [
                HistogramSnapshot(fn, np.zeros(bins), observed)
                for fn in hashes
            ]
        rows = hash_rows(hashes, observed)
        return [
            HistogramSnapshot(
                fn, np.bincount(row, weights=counts, minlength=bins), observed
            )
            for fn, row in zip(hashes, rows, strict=True)
        ]

    def snapshots_by_feature(
        self, features: tuple[Feature, ...]
    ) -> dict[Feature, list[HistogramSnapshot]]:
        """Key the clone snapshots by :class:`Feature` for the detector
        bank (wire documents key by short name)."""
        return {feature: self.clone_snapshots(feature) for feature in features}

    # ------------------------------------------------------------------
    def merge(self, other: "IntervalDigest") -> "IntervalDigest":
        """Combine two digests of the same interval into one.

        Exact, order-invariant, and associative: each feature's
        observed values are unioned and the counts of a shared value
        added, flow counts sum, site sets union (kept sorted).  Refuses
        mismatched sketch schemas (:class:`~repro.errors.SketchError`),
        different intervals, and overlapping site sets - each of which
        would double-count or fabricate traffic.
        """
        if self.schema != other.schema:
            raise SketchError(
                f"cannot merge digests with incompatible sketch "
                f"parameters: {self.schema} vs {other.schema}"
            )
        if self.interval != other.interval:
            raise FederationError(
                f"cannot merge digests of different intervals: "
                f"{self.interval} vs {other.interval}"
            )
        overlap = set(self.sites) & set(other.sites)
        if overlap:
            raise FederationError(
                f"sites {sorted(overlap)} appear in both digests; "
                f"merging would double-count their traffic"
            )
        return IntervalDigest(
            schema=self.schema,
            interval=self.interval,
            sites=tuple(sorted(set(self.sites) | set(other.sites))),
            flow_count=self.flow_count + other.flow_count,
            value_counts={
                name: union_counts(*self._values[name], *other._values[name])
                for name in self.schema.features
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
        like checkpoint documents."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "IntervalDigest":
        """Rebuild a digest, refusing foreign wire versions and value
        counts that do not describe ``flow_count`` flows."""
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
        payload = read_fields(
            "digest features", fields["features"], FederationError,
            **dict.fromkeys(schema.features, _FEATURE),
        )
        digest = cls(
            schema=schema,
            interval=fields["interval"],
            sites=fields["sites"],
            flow_count=flow_count,
            value_counts={
                name: (payload[name]["observed"], payload[name]["counts"])
                for name in schema.features
            },
        )
        for name, (observed, counts) in digest._values.items():
            # Merging unions observed sets as sorted runs.
            if np.any(observed[1:] <= observed[:-1]):
                raise FederationError(
                    f"feature {name!r} observed values are not sorted "
                    f"and distinct"
                )
            # An observed value was seen in at least one flow, and
            # every flow carries exactly one value of every feature.
            if counts.size and counts.min() < 1:
                raise FederationError(
                    f"feature {name!r} counts must be positive flow "
                    f"counts: minimum {counts.min()}"
                )
            total = _total(counts)
            if total != flow_count:
                raise FederationError(
                    f"self-contradictory payload: feature {name!r} "
                    f"counts total {total} flows, the digest declares "
                    f"{flow_count}"
                )
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
