"""Count-Min sketch (Cormode & Muthukrishnan, reference [6] of the paper).

The paper contrasts histogram cloning with sketches: both use random
projections, but sketches target stream *summarization* while cloning
targets random *binning*.  We provide Count-Min as a substrate because it
shares the hashing infrastructure and is the natural tool for the
heavy-hitter cross-checks used in our tests and examples.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigError, SketchError
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import HashFamily
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
    ):
        """``table`` adopts a ready ``(depth, width)`` int64 counter
        array (a decoded document) instead of allocating zeros."""
        if width < 1:
            raise ConfigError(f"width must be >= 1: {width}")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1: {depth}")
        self._width = width
        self._depth = depth
        self._seed = seed
        family = HashFamily(bins=width, seed=seed)
        self._hashes = family.take(depth)
        self._table = (
            np.zeros((depth, width), dtype=np.int64)
            if table is None
            else table
        )
        self._total = 0

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

    def update(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value``."""
        if count < 0:
            raise ConfigError("count-min does not support decrements")
        for row, hash_fn in enumerate(self._hashes):
            self._table[row, hash_fn(value)] += count
        self._total += count

    def update_array(self, values: np.ndarray) -> None:
        """Add one occurrence of every entry in ``values`` (vectorized)."""
        self.update_distinct(*sorted_distinct(values))

    def update_distinct(
        self, distinct: np.ndarray, run_lengths: np.ndarray
    ) -> None:
        """Add ``run_lengths[i]`` occurrences of ``distinct[i]`` (a
        column in :func:`~repro.sketch.distinct.sorted_distinct` form).

        Each distinct value is hashed once per row; the run lengths are
        integer-valued float64, so the weighted ``bincount`` is exact
        and casts back to the table's int64 without rounding.
        """
        if distinct.size == 0:
            return
        for row, hash_fn in enumerate(self._hashes):
            bins = hash_fn.hash_array(distinct)
            self._table[row] += np.bincount(
                bins, weights=run_lengths, minlength=self._width
            ).astype(np.int64)
        self._total += int(run_lengths.sum())

    def estimate(self, value: int) -> int:
        """Point query: an upper bound on the true count of ``value``."""
        return int(
            min(
                self._table[row, hash_fn(value)]
                for row, hash_fn in enumerate(self._hashes)
            )
        )

    def heavy_hitters(
        self, candidates: np.ndarray, threshold: int
    ) -> list[tuple[int, int]]:
        """Return (value, estimate) for candidates estimated above
        ``threshold``, sorted by decreasing estimate."""
        hits = []
        for value in np.asarray(candidates, dtype=np.uint64):
            est = self.estimate(int(value))
            if est >= threshold:
                hits.append((int(value), est))
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

    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other``'s counts into this sketch, in place.

        Count-min tables over the same hash functions are linear: the
        cell-wise sum of two tables is exactly the table of the
        concatenated streams, so merged estimates keep the standard
        ``eps * N`` guarantee with ``N`` the combined total.  Mismatched
        width/depth/seed would add counts of *unrelated* cells and
        silently fabricate frequencies, so it is refused outright.
        """
        if not self.compatible_with(other):
            raise SketchError(
                f"cannot merge count-min sketches with different "
                f"parameters: width/depth/seed "
                f"{self._width}/{self._depth}/{self._seed} vs "
                f"{other._width}/{other._depth}/{other._seed}"
            )
        self._table += other._table
        self._total += other._total

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
        sketch = cls(
            width, depth, fields["seed"], table=flat.reshape(depth, width)
        )
        sketch._total = total
        return sketch
