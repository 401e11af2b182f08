"""Anomaly meta-data: the contract between detectors and extraction.

Table I of the paper lists the meta-data different detector families can
supply (histogram detectors: affected feature values; volume detectors:
time span; PCA subspace: OD flow, ...).  This module defines the
meta-data structure the extraction pipeline consumes - per-feature sets
of suspicious values - together with union/intersection flow matching
(``tests/paper/test_table1_metadata.py`` holds Table I itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.features import Feature
from repro.errors import ExtractionError
from repro.flows.table import FlowTable


@dataclass
class Metadata:
    """Per-feature suspicious value sets provided by detectors.

    The paper's prefilter keeps flows matching the *union* of the
    meta-data (Section II-A); the intersection variant is retained for
    the ablation that shows why the union is necessary.
    """

    values: dict[Feature, np.ndarray] = field(default_factory=dict)

    def add(self, feature: Feature, values: np.ndarray) -> None:
        """Merge ``values`` into the set for ``feature``.

        Every value must be an integer in ``[0, 2^64)``: a negative,
        fractional or too large one is refused with an
        :class:`ExtractionError` naming the feature, instead of being
        wrapped or truncated onto some other flow value.
        """
        arr = np.asarray(values)
        if arr.dtype != np.uint64:
            if arr.dtype.kind in "iu":
                bad = arr < 0
            elif arr.dtype.kind == "f":
                bad = ~((arr >= 0) & (arr < 2.0**64) & (arr == np.floor(arr)))
            else:
                bad = np.ones(arr.shape, dtype=bool)
            if bad.any():
                raise ExtractionError(
                    f"meta-data values of {feature.short_name} must be "
                    f"integers in [0, 2^64): got {arr[bad].tolist()[0]!r}"
                )
            arr = arr.astype(np.uint64)
        if feature in self.values:
            arr = np.union1d(self.values[feature], arr)
        self.values[feature] = arr

    def __eq__(self, other: object) -> bool:
        """Equal when every feature holds the same values (a
        :meth:`copy` equals its original until either is added to)."""
        if not isinstance(other, Metadata):
            return NotImplemented
        return self.values.keys() == other.values.keys() and all(
            np.array_equal(values, other.values[feature])
            for feature, values in self.values.items()
        )

    def copy(self) -> "Metadata":
        """An equal copy sharing no array with this one, so neither
        changes with the other."""
        return Metadata({f: np.array(v) for f, v in self.values.items()})

    def features(self) -> tuple[Feature, ...]:
        """Features that currently carry at least one value."""
        return tuple(f for f, v in self.values.items() if len(v) > 0)

    def get(self, feature: Feature) -> np.ndarray:
        """Value set for a feature (empty array when absent)."""
        return self.values.get(feature, np.empty(0, dtype=np.uint64))

    def total_values(self) -> int:
        return int(sum(len(v) for v in self.values.values()))

    def is_empty(self) -> bool:
        return self.total_values() == 0

    # ------------------------------------------------------------------
    # Flow matching
    # ------------------------------------------------------------------
    def match_union(self, flows: FlowTable) -> np.ndarray:
        """Mask of flows matching ANY (feature, value) of the meta-data.

        This is the paper's prefilter: meta-data of multi-stage anomalies
        can be flow-disjoint, so any single match keeps the flow.
        """
        mask = np.zeros(len(flows), dtype=bool)
        for feature, values in self.values.items():
            if len(values) == 0:
                continue
            mask |= np.isin(feature.extract(flows), values)
        return mask

    def match_intersection(self, flows: FlowTable) -> np.ndarray:
        """Mask of flows matching ALL features present in the meta-data.

        Kept for the union-vs-intersection ablation; an empty meta-data
        matches nothing.
        """
        active = self.features()
        if not active:
            return np.zeros(len(flows), dtype=bool)
        mask = np.ones(len(flows), dtype=bool)
        for feature in active:
            mask &= np.isin(feature.extract(flows), self.values[feature])
        return mask

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    @classmethod
    def union(cls, parts: list["Metadata"]) -> "Metadata":
        """Union of several detectors' meta-data (per feature)."""
        merged = cls()
        for part in parts:
            for feature, values in part.values.items():
                if len(values):
                    merged.add(feature, values)
        return merged

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{feature.short_name}:{len(values)}"
            for feature, values in self.values.items()
            if len(values)
        )
        return f"Metadata({inner})"
