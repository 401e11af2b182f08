"""Traffic features monitored by the histogram detectors.

The paper uses five detectors (Section II-E, "Number of Detectors n"):
source IP, destination IP, source port, destination port, and packets
per flow.  The mining step additionally uses protocol and byte counts,
so the full seven-feature enum lives here and both layers share it.

Feature *sets* are named in :data:`feature_sets` ("paper", "all", ...),
and :func:`resolve_features` turns any spec - a set name, feature names,
:class:`Feature` members, or duck-compatible :class:`CustomFeature`
objects - into the tuple :class:`~repro.detection.manager.DetectorBank`
consumes.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.flows.table import FlowTable
from repro.registry import lookup
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import checked_keys


class Feature(enum.Enum):
    """The seven flow features; values are the FlowTable column names."""

    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"
    PROTOCOL = "protocol"
    PACKETS = "packets"
    BYTES = "bytes"

    @property
    def column(self) -> str:
        return self.value

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]

    def extract(self, flows: FlowTable) -> np.ndarray:
        """The feature column of a flow table."""
        return flows.column(self.value)

    def format_value(self, value: int) -> str:
        """Human-readable rendering of one feature value."""
        if self in (Feature.SRC_IP, Feature.DST_IP):
            from repro.flows.record import int_to_ip

            return int_to_ip(int(value))
        if self is Feature.PROTOCOL:
            from repro.flows.record import PROTOCOL_NAMES

            return PROTOCOL_NAMES.get(int(value), str(int(value)))
        return str(int(value))


_SHORT_NAMES = {
    Feature.SRC_IP: "srcIP",
    Feature.DST_IP: "dstIP",
    Feature.SRC_PORT: "srcPort",
    Feature.DST_PORT: "dstPort",
    Feature.PROTOCOL: "proto",
    Feature.PACKETS: "#packets",
    Feature.BYTES: "#bytes",
}

#: The five features the paper's detectors monitor (Section II-E).
DETECTOR_FEATURES = (
    Feature.SRC_IP,
    Feature.DST_IP,
    Feature.SRC_PORT,
    Feature.DST_PORT,
    Feature.PACKETS,
)

#: All seven mining features in the canonical transaction order.
MINING_FEATURES = tuple(Feature)


def parse_feature(name: str) -> Feature:
    """Resolve a feature from its column name or short name.

    >>> parse_feature("dst_port") is Feature.DST_PORT
    True
    >>> parse_feature("dstPort") is Feature.DST_PORT
    True
    """
    for feature in Feature:
        if name == feature.value or name == feature.short_name:
            return feature
    raise ConfigError(f"unknown feature name: {name!r}")


@dataclass(frozen=True)
class CustomFeature:
    """A user-defined detector feature over a flow-table column.

    Duck-compatible with :class:`Feature` everywhere the detection layer
    looks - ``value``/``column`` (the hash-salt / column name),
    ``short_name``, ``extract``, ``format_value`` - so a custom feature
    drops into :class:`~repro.detection.manager.DetectorBank`,
    meta-data voting, and the prefilter unchanged.

    ``transform`` derives the monitored values from the column, e.g. a
    /24-subnet detector over destination IPs::

        subnet24 = CustomFeature(
            "dstSubnet24", "dst_ip",
            transform=lambda values: values >> np.uint64(8),
        )

    Pass a tuple of features (enum and custom mixed freely) wherever a
    feature spec goes.
    """

    short_name: str
    column: str
    transform: object | None = None

    def __post_init__(self) -> None:
        if not self.short_name:
            raise ConfigError("custom feature needs a short_name")
        if not self.column:
            raise ConfigError(
                f"custom feature {self.short_name!r} needs a column"
            )

    @property
    def value(self) -> str:
        """Distinct hash-salt identity (mirrors ``Feature.value``)."""
        return f"{self.column}:{self.short_name}"

    def extract(self, flows: FlowTable) -> np.ndarray:
        values = flows.column(self.column)
        if self.transform is not None:
            values = self.transform(values)
        return values

    def format_value(self, value: int) -> str:
        return str(int(value))


#: Anything :class:`~repro.detection.manager.DetectorBank` accepts as a
#: monitored feature.
FeatureLike = Feature | CustomFeature


def resolve_features(spec: object) -> tuple[FeatureLike, ...]:
    """Normalize a feature spec into a tuple of feature objects.

    Accepts a :data:`feature_sets` name, a single feature name, or an
    iterable mixing :class:`Feature` members, names, and
    :class:`CustomFeature` objects.  Unknown set names raise
    :class:`~repro.errors.RegistryError` listing the sets; a repeated
    ``short_name`` raises :class:`~repro.errors.ConfigError` (one
    detector per name: the bank and its checkpoint key on it).
    """
    if spec is None:
        return DETECTOR_FEATURES
    if isinstance(spec, (Feature, CustomFeature)):
        return (spec,)
    if isinstance(spec, str):
        if spec not in feature_sets:
            try:
                return (parse_feature(spec),)
            except ConfigError:
                # Not a single feature either: report the richer error,
                # listing the set names.
                pass
        return lookup("feature set", feature_sets, spec)
    if isinstance(spec, Iterable):
        resolved = []
        for item in spec:
            if isinstance(item, str):
                resolved.append(parse_feature(item))
            elif isinstance(item, (Feature, CustomFeature)):
                resolved.append(item)
            elif hasattr(item, "extract") and hasattr(item, "short_name"):
                # Duck-typed custom feature objects pass through.
                resolved.append(item)
            else:
                raise ConfigError(f"not a feature: {item!r}")
        seen: set[str] = set()
        for feature in resolved:
            if feature.short_name in seen:
                raise ConfigError(
                    f"feature {feature.short_name!r} is monitored twice"
                )
            seen.add(feature.short_name)
        return tuple(resolved)
    raise ConfigError(f"cannot resolve features from {spec!r}")


def value_counts(
    flows: FlowTable, features: Iterable[FeatureLike]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One interval's summary per feature, keyed by short name: the
    sorted distinct values (read-only uint64) and the int64 number of
    flows carrying each.  A collector ships it as a digest and a
    detector bank bins it, so a solo run is the one-site federation
    minus the wire.

    Every column is checked as a key (a signed column holding a
    negative value is refused with :class:`~repro.errors.SketchError`)
    before the columns are stacked as one ``(F, n)`` unsigned block and
    sorted by one ``np.sort``; one run-start mask over the block then
    splits into each feature's runs.
    """
    features = tuple(features)
    columns = [checked_keys(feature.extract(flows)) for feature in features]
    if not len(flows) or {len(column) for column in columns} != {len(flows)}:
        # No flows, or a custom transform that filters: each column
        # sorted alone.
        return {
            feature.short_name: _int_counts(*sorted_distinct(column))
            for feature, column in zip(features, columns)
        }
    # The block sorts in the narrowest unsigned width that holds every
    # value (64-bit keys sort ~2.5x slower than 32-bit ones): the order
    # is the uint64 order callers see, and the distinct values widen
    # losslessly.  Signed and float columns are non-negative by now.
    narrow = all(
        column.dtype.kind == "u" and column.dtype.itemsize <= 4
        or column.max() <= _UINT32_MAX
        for column in columns
    )
    block = np.empty(
        (len(columns), len(flows)), dtype=np.uint32 if narrow else np.uint64
    )
    for row, column in zip(block, columns):
        row[...] = column
    block.sort(axis=1)
    first = np.empty(block.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(block[:, 1:], block[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    # Every row opens a run, so a run ends at the next start.
    runs = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=runs[:-1])
    runs[-1] = block.size - starts[-1]
    distinct = block.ravel()[starts].astype(np.uint64, copy=False)
    distinct.setflags(write=False)
    bounds = np.searchsorted(starts, np.arange(0, block.size + 1, len(flows)))
    return {
        feature.short_name: (distinct[lo:hi], runs[lo:hi])
        for feature, lo, hi in zip(
            features, bounds[:-1].tolist(), bounds[1:].tolist()
        )
    }


#: The largest key a 32-bit sort holds.
_UINT32_MAX = np.iinfo(np.uint32).max


def _int_counts(
    distinct: np.ndarray, run_lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    return distinct, run_lengths.astype(np.int64)


#: The named feature sets a config or ``--features`` can select.
feature_sets: dict[str, tuple[FeatureLike, ...]] = {
    # "paper": the five detectors of Section II-E (the default bank).
    "paper": DETECTOR_FEATURES,
    "detector": DETECTOR_FEATURES,
    # "all": every mining feature, for ablations that also watch
    # protocol and byte counts.
    "all": MINING_FEATURES,
    "mining": MINING_FEATURES,
    # "endpoints": the address/port features only (no volume counts).
    "endpoints": (
        Feature.SRC_IP, Feature.DST_IP, Feature.SRC_PORT, Feature.DST_PORT
    ),
}
