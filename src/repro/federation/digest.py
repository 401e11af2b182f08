"""Interval digests - the federation wire format.

A digest is everything one vantage point says about one measurement
interval, expressed purely in mergeable sketches: per monitored
feature, the set of values observed, the ``C`` clone histograms over
it that the detector bank needs for KL detection, and a count-min
sketch for support estimation of the voted meta-data values.  The
observed set is a fact about the feature's interval, not about any one
binning, so it is written once per feature and every decoded clone
shares the one array.  Digests are the *unit of
inter-site communication*: collectors ship them, the federator merges
them, and nothing O(flows) ever crosses a site boundary.

Two properties carry the subsystem's correctness contract:

* **Exact mergeability.**  Histogram counts and count-min tables over
  identical hash streams are linear, so merging digests cell-wise is
  byte-identical to digesting the concatenated flow streams - merge
  order and grouping cannot matter (``tests/federation`` asserts both
  byte-for-byte).
* **Versioned refusal.**  The canonical-JSON wire document carries a
  schema version plus the sketch compatibility keys (seed, clones,
  bins, count-min width/depth, feature list).  Any mismatch is refused
  with a typed error - merging incompatible sketches would silently
  fabricate counts, the exact failure mode the
  :class:`~repro.errors.SketchError` guard exists to prevent.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.detection.detector import DetectorConfig
from repro.detection.features import DETECTOR_FEATURES, Feature
from repro.errors import FederationError, SketchError
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_union
from repro.sketch.hashing import UniversalHash
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
#: see CONTRIBUTING).  Version 2 carries one ``observed`` array per
#: feature instead of one per clone.
DIGEST_VERSION = 2

#: Default count-min geometry: width 2048 bounds the point-query error
#: at eps = e/2048 (about 0.13% of the merged interval's flow count)
#: and depth 4 bounds the failure probability at delta = e^-4 (about
#: 1.8%); see ``CountMinSketch.from_error_bounds``.
DEFAULT_CM_WIDTH = 2048
DEFAULT_CM_DEPTH = 4


def countmin_seed(seed: int, feature: Feature) -> int:
    """Seed of the per-feature count-min hash family under ``seed``.

    Offset into a range disjoint from :func:`clone_seed`'s feature
    salts so the count-min rows never reuse a clone's hash stream
    (correlated streams would correlate their collision errors).
    """
    salt = zlib.crc32(feature.value.encode()) & 0xFFFF
    return seed * 131 + 0x10000 + salt


@dataclass(frozen=True, slots=True)
class DigestSchema:
    """The sketch compatibility keys every digest of a federation shares.

    Two digests merge only when their schemas are equal: equal seeds
    and geometry make the underlying hash streams identical, which is
    what makes cell-wise merging exact.
    """

    seed: int
    clones: int
    bins: int
    cm_width: int
    cm_depth: int
    features: tuple[str, ...]

    @classmethod
    def build(
        cls,
        config: DetectorConfig,
        features: tuple[Feature, ...],
        seed: int,
        cm_width: int,
        cm_depth: int,
    ) -> "DigestSchema":
        return cls(
            seed=seed,
            clones=config.clones,
            bins=config.bins,
            cm_width=cm_width,
            cm_depth=cm_depth,
            features=tuple(f.short_name for f in features),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "clones": self.clones,
            "bins": self.bins,
            "cm_width": self.cm_width,
            "cm_depth": self.cm_depth,
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
    "cm_width": integer(1),
    "cm_depth": integer(1),
    "features": _NAMES,
}

_HASH = record(a=integer(1), b=count, bins=integer(1))
#: One clone of a feature document: its hash function and bin counts.
_CLONE = record(
    hash=lambda block: UniversalHash(**_HASH(block)),
    counts=packed(np.float64),
)


def _clone_doc(snap: HistogramSnapshot) -> dict[str, Any]:
    """The inverse of :data:`_CLONE`."""
    fn = snap.hash_fn
    return {
        "hash": {"a": fn.a, "b": fn.b, "bins": fn.bins},
        "counts": pack_array(snap.counts),
    }


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
    """One interval's sketch summary from one or more vantage points.

    Immutable by convention: :meth:`merge` returns a new digest, and
    the snapshot/count-min payloads are never mutated in place.
    """

    __slots__ = (
        "schema", "interval", "sites", "flow_count",
        "_snapshots", "_countmin",
    )

    def __init__(
        self,
        schema: DigestSchema,
        interval: int,
        sites: tuple[str, ...],
        flow_count: int,
        snapshots: dict[str, list[HistogramSnapshot]],
        countmin: dict[str, CountMinSketch],
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
        for name in schema.features:
            if name not in snapshots or name not in countmin:
                raise FederationError(
                    f"digest missing sketches for feature {name!r}"
                )
            if len(snapshots[name]) != schema.clones:
                raise FederationError(
                    f"feature {name!r} carries "
                    f"{len(snapshots[name])} clone snapshots, schema "
                    f"declares {schema.clones}"
                )
            seen = snapshots[name][0].observed
            if any(
                s.observed is not seen and not np.array_equal(s.observed, seen)
                for s in snapshots[name]
            ):
                raise FederationError(
                    f"feature {name!r} clones disagree on the observed "
                    f"values; a digest holds one observed set per feature"
                )
        self.schema = schema
        self.interval = interval
        self.sites = tuple(sorted(sites))
        self.flow_count = flow_count
        self._snapshots = snapshots
        self._countmin = countmin

    # ------------------------------------------------------------------
    def clone_snapshots(self, feature: Feature) -> list[HistogramSnapshot]:
        """The per-clone histogram snapshots of one feature."""
        return list(self._snapshots[feature.short_name])

    def countmin(self, feature: Feature) -> CountMinSketch:
        """The count-min support estimator of one feature."""
        return self._countmin[feature.short_name]

    def snapshots_by_feature(
        self, features: tuple[Feature, ...]
    ) -> dict[Feature, list[HistogramSnapshot]]:
        """Key the snapshot payload by :class:`Feature` for the
        detector bank (wire documents key by short name)."""
        return {feature: self.clone_snapshots(feature) for feature in features}

    # ------------------------------------------------------------------
    def merge(self, other: "IntervalDigest") -> "IntervalDigest":
        """Combine two digests of the same interval into one.

        Exact, order-invariant, and associative: histogram counts and
        count-min cells add, each feature's observed set is unioned once
        for all its clones, flow counts sum, site sets union (kept
        sorted).  Refuses mismatched sketch schemas or clone hash
        functions (:class:`~repro.errors.SketchError`), different
        intervals, and overlapping site sets - each of which would
        double-count or fabricate traffic.
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
        snapshots: dict[str, list[HistogramSnapshot]] = {}
        countmin: dict[str, CountMinSketch] = {}
        for name in self.schema.features:
            clones = list(zip(self._snapshots[name], other._snapshots[name]))
            # Different hash functions count different events per bin.
            if any(mine.hash_fn != theirs.hash_fn for mine, theirs in clones):
                raise SketchError(
                    f"cannot merge feature {name!r} clones binned by "
                    f"different hash functions"
                )
            observed = sorted_union(
                clones[0][0].observed, clones[0][1].observed
            )
            snapshots[name] = [
                HistogramSnapshot(
                    mine.hash_fn, mine.counts + theirs.counts, observed
                )
                for mine, theirs in clones
            ]
            countmin[name] = self._countmin[name].merged(
                other._countmin[name]
            )
        return IntervalDigest(
            schema=self.schema,
            interval=self.interval,
            sites=tuple(sorted(set(self.sites) | set(other.sites))),
            flow_count=self.flow_count + other.flow_count,
            snapshots=snapshots,
            countmin=countmin,
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
                    "observed": pack_array(self._snapshots[name][0].observed),
                    "clones": [_clone_doc(snap) for snap in self._snapshots[name]],
                    "countmin": self._countmin[name].to_dict(),
                }
                for name in self.schema.features
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering: byte-stable for identical state
        (sorted keys, minimal separators), so digests diff and replay
        like checkpoint documents."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "IntervalDigest":
        """Rebuild a digest, refusing foreign wire versions."""
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
        sketches = record(
            observed=packed(np.uint64),
            clones=listof(_CLONE, length=schema.clones),
            countmin=CountMinSketch.from_dict,
        )
        payload = read_fields(
            "digest features", fields["features"], FederationError,
            **dict.fromkeys(schema.features, sketches),
        )
        snapshots: dict[str, list[HistogramSnapshot]] = {}
        countmin = {name: payload[name]["countmin"] for name in payload}
        for name in schema.features:
            observed = payload[name]["observed"]
            # Merging unions observed sets as sorted runs.
            if np.any(observed[1:] <= observed[:-1]):
                raise FederationError(
                    f"feature {name!r} observed values are not sorted "
                    f"and distinct"
                )
            observed.setflags(write=False)
            snapshots[name] = []
            for clone in payload[name]["clones"]:
                hash_fn, counts = clone["hash"], clone["counts"]
                if hash_fn.bins != schema.bins or len(counts) != schema.bins:
                    raise FederationError(
                        f"feature {name!r} clone hashes into "
                        f"{hash_fn.bins} bins and carries {len(counts)} "
                        f"counts, schema declares {schema.bins} bins"
                    )
                # Every flow lands in exactly one bin of every clone.
                # NaN fails the second test (NaN != anything); left in,
                # it would turn the clone's KL into NaN, which the
                # alarm threshold reads as "no alarm".
                if counts.min() < 0 or counts.sum() != flow_count:
                    raise FederationError(
                        f"self-contradictory payload: feature {name!r} "
                        f"clone counts (min {counts.min()}, total "
                        f"{counts.sum()}) do not describe "
                        f"{flow_count} flows"
                    )
                snapshots[name].append(
                    HistogramSnapshot(hash_fn, counts, observed)
                )
            cm = countmin[name]
            if cm.width != schema.cm_width or cm.depth != schema.cm_depth:
                raise FederationError(
                    f"feature {name!r} count-min is "
                    f"{cm.depth}x{cm.width}, schema declares "
                    f"{schema.cm_depth}x{schema.cm_width}"
                )
        return cls(
            schema=schema,
            interval=fields["interval"],
            sites=fields["sites"],
            flow_count=flow_count,
            snapshots=snapshots,
            countmin=countmin,
        )

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
