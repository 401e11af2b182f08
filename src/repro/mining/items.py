"""Items and item-sets for association mining over flows.

Section II-B: each flow becomes a transaction of width seven, one item
per feature; an item is a (feature, value) pair such as
``dstPort = 80``.  We encode an item into a single int64 - feature tag
in the high bits, value in the low 48 - so the miners can work on numpy
matrices, and provide a decoded, human-readable
:class:`FrequentItemset` for reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.features import MINING_FEATURES, Feature
from repro.errors import MiningError

#: Bit position of the feature tag inside an encoded item.
FEATURE_SHIFT = 48
#: Mask of the value bits.
VALUE_MASK = (1 << FEATURE_SHIFT) - 1

_FEATURE_INDEX = {feature: i for i, feature in enumerate(MINING_FEATURES)}


def encode_item(feature: Feature, value: int) -> int:
    """Pack a (feature, value) pair into one int64 item."""
    if value < 0 or value > VALUE_MASK:
        raise MiningError(
            f"feature value out of encodable range [0, 2^48): {value}"
        )
    return (_FEATURE_INDEX[feature] << FEATURE_SHIFT) | int(value)


def decode_item(item: int) -> tuple[Feature, int]:
    """Unpack an encoded item back into its (feature, value) pair."""
    index = int(item) >> FEATURE_SHIFT
    if not 0 <= index < len(MINING_FEATURES):
        raise MiningError(f"not an encoded item: {item}")
    return MINING_FEATURES[index], int(item) & VALUE_MASK


def item_feature(item: int) -> Feature:
    """The feature a packed item belongs to."""
    return decode_item(item)[0]


def format_item(item: int) -> str:
    """Human-readable "feature=value" rendering of an item."""
    feature, value = decode_item(item)
    return f"{feature.short_name}={feature.format_value(value)}"


@dataclass(frozen=True)
class FrequentItemset:
    """One mined item-set with its support count.

    ``items`` is the sorted tuple of encoded items; helper accessors
    decode them for presentation and ground-truth matching.
    """

    items: tuple[int, ...]
    support: int

    def __post_init__(self) -> None:
        if self.support < 0:
            raise MiningError(f"support must be >= 0: {self.support}")
        if len(self.items) == 0:
            raise MiningError("an item-set must contain at least one item")
        if tuple(sorted(self.items)) != self.items:
            raise MiningError("items must be stored sorted")
        features = [item_feature(item) for item in self.items]
        if len(set(features)) != len(features):
            raise MiningError(
                "a transaction cannot contain two items of one feature; "
                f"got {self.items}"
            )

    @property
    def size(self) -> int:
        """k of this k-item-set."""
        return len(self.items)

    def as_dict(self) -> dict[Feature, int]:
        """Decoded {feature: value} view."""
        return dict(decode_item(item) for item in self.items)

    def __str__(self) -> str:
        inner = ", ".join(format_item(item) for item in self.items)
        return f"{{{inner}}} (support={self.support})"


def itemsets_sorted(itemsets: list[FrequentItemset]) -> list[FrequentItemset]:
    """Canonical report order: support descending, then size descending,
    then lexicographic items for determinism."""
    return sorted(
        itemsets, key=lambda s: (-s.support, -s.size, s.items)
    )
