"""Count-Min sketch (Cormode & Muthukrishnan, reference [6] of the paper).

The paper contrasts histogram cloning with sketches: both use random
projections, but sketches target stream *summarization* while cloning
targets random *binning*.  We provide Count-Min as a substrate because it
shares the hashing infrastructure and is the natural tool for the
heavy-hitter cross-checks used in our tests and examples.

No runtime path uses it any more: federation digests carry exact value
counts (digest version 3).  The perf ledger's replay
(``benchmarks/perf/workloads.py``) is its last importer; it leaves with
ROADMAP item 2.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigError, SketchError
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import (
    HashFamily,
    UniversalHash,
    checked_key,
    checked_keys,
    hash_rows,
)
from repro.state import count, integer, pack_array, packed, read_fields

_DOCUMENT = {
    "width": integer(1),
    "depth": integer(1),
    "seed": count,
    "total": integer(),
    "table": packed(np.int64),
}


class CountMinSketch:
    """Point-query frequency estimator with one-sided error.

    Guarantees (standard): with width ``w = ceil(e / eps)`` and depth
    ``d = ceil(ln(1 / delta))``, the estimate for any item exceeds the
    true count by more than ``eps * N`` with probability at most
    ``delta``.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int = 0,
        *,
        table: np.ndarray | None = None,
        total: int = 0,
    ):
        """``table`` adopts a ready ``(depth, width)`` int64 counter
        array (a decoded document, a merge) with its ``total`` instead
        of allocating zeros.  The ``depth`` hash functions are drawn on
        the first update or query: a decoded or merged sketch that is
        only re-encoded never draws them."""
        if width < 1:
            raise ConfigError(f"width must be >= 1: {width}")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1: {depth}")
        self._width = width
        self._depth = depth
        self._seed = seed
        self._drawn: list[UniversalHash] | None = None
        self._table = (
            np.zeros((depth, width), dtype=np.int64)
            if table is None
            else table
        )
        self._total = total

    @classmethod
    def from_error_bounds(
        cls, epsilon: float, delta: float, seed: int = 0
    ) -> "CountMinSketch":
        """Build a sketch sized for additive error ``epsilon * N`` with
        failure probability ``delta``."""
        if not 0 < epsilon < 1:
            raise ConfigError(f"epsilon must be in (0, 1): {epsilon}")
        if not 0 < delta < 1:
            raise ConfigError(f"delta must be in (0, 1): {delta}")
        width = int(np.ceil(np.e / epsilon))
        depth = int(np.ceil(np.log(1.0 / delta)))
        return cls(width=width, depth=depth, seed=seed)

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def seed(self) -> int:
        """Seed of the hash family; sketches only merge on equal seeds."""
        return self._seed

    @property
    def total(self) -> int:
        """Total count of all updates (N)."""
        return self._total

    def _hashes(self) -> list[UniversalHash]:
        """The row hash functions, drawn from the seed on first use."""
        if self._drawn is None:
            family = HashFamily(bins=self._width, seed=self._seed)
            self._drawn = family.take(self._depth)
        return self._drawn

    def update(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value``."""
        if count < 0:
            raise ConfigError("count-min does not support decrements")
        key = np.array([checked_key(value)], dtype=np.uint64)
        bins = hash_rows(self._hashes(), key)[:, 0]
        self._table[np.arange(self._depth), bins] += count
        self._total += count

    def update_array(self, values: np.ndarray) -> None:
        """Add one occurrence of every entry in ``values`` (vectorized)."""
        self.update_distinct(*sorted_distinct(values))

    def update_distinct(
        self, distinct: np.ndarray, run_lengths: np.ndarray
    ) -> None:
        """Add ``run_lengths[i]`` occurrences of ``distinct[i]`` (a
        column in :func:`~repro.sketch.distinct.sorted_distinct` form).

        Every row hashes the distinct values in one
        :func:`~repro.sketch.hashing.hash_rows` pass and one weighted
        ``bincount`` over ``row * width + bin`` scatters them all; the
        run lengths are integer-valued float64, so the sums are exact
        and cast back to the table's int64 without rounding.
        """
        if distinct.size == 0:
            return
        cells = hash_rows(self._hashes(), distinct)
        cells += np.arange(0, self._table.size, self._width)[:, None]
        self._table += (
            np.bincount(
                cells.reshape(-1),
                weights=np.tile(run_lengths, self._depth),
                minlength=self._table.size,
            )
            .astype(np.int64)
            .reshape(self._depth, self._width)
        )
        self._total += int(run_lengths.sum())

    def estimate(self, value: int) -> int:
        """Point query: an upper bound on the true count of ``value``."""
        key = np.array([checked_key(value)], dtype=np.uint64)
        return int(self.estimate_array(key)[0])

    def estimate_array(self, values: np.ndarray) -> np.ndarray:
        """:meth:`estimate` of every entry of ``values`` as int64: one
        hash pass over all rows and a min down each column."""
        bins = hash_rows(self._hashes(), checked_keys(values))
        return np.take_along_axis(self._table, bins, axis=1).min(axis=0)

    def heavy_hitters(
        self, candidates: np.ndarray, threshold: int
    ) -> list[tuple[int, int]]:
        """Return (value, estimate) for candidates estimated above
        ``threshold``, sorted by decreasing estimate."""
        keys = checked_keys(candidates).astype(np.uint64, copy=False)
        hits = [
            (value, est)
            for value, est in zip(
                keys.tolist(), self.estimate_array(keys).tolist()
            )
            if est >= threshold
        ]
        hits.sort(key=lambda pair: (-pair[1], pair[0]))
        return hits

    # ------------------------------------------------------------------
    # Federation: merge + canonical wire form
    # ------------------------------------------------------------------
    def compatible_with(self, other: "CountMinSketch") -> bool:
        """True when ``other`` uses the same table geometry and hash
        streams, i.e. cell-wise addition of the tables is meaningful."""
        return (
            self._width == other._width
            and self._depth == other._depth
            and self._seed == other._seed
        )

    def _refuse_incompatible(self, other: "CountMinSketch") -> None:
        if not self.compatible_with(other):
            raise SketchError(
                f"cannot merge count-min sketches with different "
                f"parameters: width/depth/seed "
                f"{self._width}/{self._depth}/{self._seed} vs "
                f"{other._width}/{other._depth}/{other._seed}"
            )

    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other``'s counts into this sketch, in place.

        Count-min tables over the same hash functions are linear: the
        cell-wise sum of two tables is exactly the table of the
        concatenated streams, so merged estimates keep the standard
        ``eps * N`` guarantee with ``N`` the combined total.  Mismatched
        width/depth/seed would add counts of *unrelated* cells and
        silently fabricate frequencies, so it is refused outright.
        """
        self._refuse_incompatible(other)
        self._table += other._table
        self._total += other._total

    def merged(self, other: "CountMinSketch") -> "CountMinSketch":
        """:meth:`merge` into a new sketch, leaving both inputs as
        they are; refused on the same terms."""
        self._refuse_incompatible(other)
        return CountMinSketch(
            self._width,
            self._depth,
            self._seed,
            table=self._table + other._table,
            total=self._total + other._total,
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe document for this sketch.

        Byte-stable: identical sketch state always renders the identical
        document (the packed-array encoding is deterministic), so digests
        embedding sketches are diff-able and replayable.
        """
        return {
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "total": self._total,
            "table": pack_array(self._table.reshape(-1)),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CountMinSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        fields = read_fields(
            "count-min document", doc, SketchError, **_DOCUMENT
        )
        width, depth = fields["width"], fields["depth"]
        total, flat = fields["total"], fields["table"]
        if total < 0:
            raise SketchError(
                f"count-min document has negative total: {total}"
            )
        # Before anything is sized by the document's own geometry: a
        # few hundred bytes may declare a table of terabytes.
        if flat.size != depth * width:
            raise SketchError(
                f"count-min table has {flat.size} cells, expected "
                f"{depth}x{width}"
            )
        return cls(
            width,
            depth,
            fields["seed"],
            table=flat.reshape(depth, width),
            total=total,
        )
