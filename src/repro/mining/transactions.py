"""Transaction sets: flows encoded for frequent item-set mining.

A :class:`TransactionSet` holds seven value columns - row = flow,
column = feature - which :meth:`TransactionSet.from_flows` takes from
the flow table as they are (read-only ``uint32`` for the address,
port and protocol features; ``packets`` / ``bytes`` copied only when a
value must be clipped to :data:`~repro.mining.items.VALUE_MASK`).  An
item is a column's value tagged with its feature (:mod:`items`), so a
transaction holds exactly one item per feature (transaction width 7,
Section II-B), which bounds Apriori at seven passes.

The level-1 work reads the columns at their native width: the item
supports are one ``sorted_distinct`` per column, and the bit-packed
rows (:meth:`TransactionSet.bitmaps`), which Apriori and SON's counting
pass AND and popcount, compare each column against the untagged value.
The ``(n, 7)`` int64 matrix of tagged items is derived from the
columns on first access and cached; the row-scanning consumers (the
sorted tidsets Eclat intersects, FP-Growth's tree build, horizontal
Apriori, :meth:`TransactionSet.contains_mask`) read it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.detection.features import MINING_FEATURES
from repro.errors import MiningError, check_count
from repro.flows.table import FlowTable
from repro.mining.items import FEATURE_SHIFT, VALUE_MASK, item_feature
from repro.sketch.distinct import sorted_distinct

#: Number of items per transaction (the seven flow features).
TRANSACTION_WIDTH = len(MINING_FEATURES)

_FEATURE_INDEX = {feature: i for i, feature in enumerate(MINING_FEATURES)}

#: Cap on one numpy temporary of the bit-packed view: the ``(items, n)``
#: compare that builds it and the ``(candidates, words)`` AND that counts
#: on it are cut into row blocks of about this many bytes, so a mine's
#: transient memory stays flat however many items or candidates a level
#: holds.  Measured on 120 k-transaction mines: 256 KiB (a block's three
#: temporaries fit the L2 cache) is ~12 % faster than 1 MiB, and 1 MiB
#: showed as +1.3 MiB peak RSS on a run whose peak falls inside a mine.
BLOCK_BYTES = 1 << 18


def joined_blocks(
    bits: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """AND the bitmap rows each line of ``rows`` names, a block of
    lines at a time.

    ``bits`` is a :meth:`TransactionSet.bitmaps` matrix (or rows joined
    from one) and ``rows`` an ``(m, k >= 1)`` array of positions into
    it.  Yields ``(joined, supports)`` per block, in line order:
    ``joined[i]`` is the AND of the ``k`` rows of line ``i`` and
    ``supports[i]`` its popcount - the support of the item-set those
    rows stand for.  A block's temporaries stay near
    :data:`BLOCK_BYTES`.
    """
    block = max(1, BLOCK_BYTES // max(1, bits.shape[1] * bits.itemsize))
    for lo in range(0, len(rows), block):
        chunk = rows[lo:lo + block]
        joined = bits[chunk[:, 0]]
        for position in range(1, chunk.shape[1]):
            joined &= bits[chunk[:, position]]
        yield joined, np.bitwise_count(joined).sum(axis=1)


class TransactionSet:
    """Encoded transactions with vertical (tidset) support counting."""

    __slots__ = ("_columns", "_matrix", "_supports")

    _columns: tuple[np.ndarray, ...]
    _matrix: np.ndarray | None
    _supports: tuple[np.ndarray, np.ndarray] | None

    def __init__(self, matrix: np.ndarray):
        """Split an ``(n, 7)`` matrix of tagged items into its columns.

        Every cell of column ``c`` must carry feature tag ``c``: the
        columns hold untagged values and re-tag them by position, so a
        cell of another feature (or a negative one) would otherwise
        come back as a different item.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != TRANSACTION_WIDTH:
            raise MiningError(
                f"transaction matrix must be (n, {TRANSACTION_WIDTH}); "
                f"got {matrix.shape}"
            )
        tags = matrix >> FEATURE_SHIFT
        foreign = (tags != np.arange(TRANSACTION_WIDTH)).any(axis=0)
        if foreign.any():
            raise MiningError(
                "transaction matrix column(s) "
                f"{np.flatnonzero(foreign).tolist()} hold items of another "
                "feature"
            )
        self._columns = tuple(
            _frozen((matrix[:, col] & VALUE_MASK).astype(np.uint64))
            for col in range(TRANSACTION_WIDTH)
        )
        self._matrix = _frozen(matrix.view())
        self._supports = None

    @classmethod
    def _of_columns(
        cls, columns: Sequence[np.ndarray], matrix: np.ndarray | None = None
    ) -> "TransactionSet":
        self = cls.__new__(cls)
        self._columns = tuple(columns)
        self._matrix = matrix
        self._supports = None
        return self

    @classmethod
    def from_flows(cls, flows: FlowTable) -> "TransactionSet":
        """Encode every flow of a table into a transaction row.

        The table's columns are held as they are; a column whose dtype
        can exceed :data:`VALUE_MASK` is copied and clipped there when
        one of its values does (a byte count beyond 2^48 cannot occur
        with sane flows, and every such value becomes the one clipped
        item).
        """
        columns = []
        for feature in MINING_FEATURES:
            values = feature.extract(flows)
            if (
                np.iinfo(values.dtype).max > VALUE_MASK
                and values.size
                and values.max() > VALUE_MASK
            ):
                values = _frozen(
                    np.minimum(values.astype(np.uint64), VALUE_MASK)
                )
            columns.append(values)
        return cls._of_columns(columns)

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, 7)`` int64 matrix of tagged items (read-only),
        derived from the columns on first access."""
        if self._matrix is None:
            matrix = np.empty((len(self), TRANSACTION_WIDTH), dtype=np.int64)
            for col, values in enumerate(self._columns):
                matrix[:, col] = values
                matrix[:, col] |= col << FEATURE_SHIFT
            self._matrix = _frozen(matrix)
        return self._matrix

    def __len__(self) -> int:
        return len(self._columns[0])

    def row_range(self, start: int, stop: int) -> "TransactionSet":
        """Transactions ``start:stop`` as views of these columns."""
        matrix = None if self._matrix is None else self._matrix[start:stop]
        return self._of_columns(
            [values[start:stop] for values in self._columns], matrix
        )

    # ------------------------------------------------------------------
    # Item-level statistics
    # ------------------------------------------------------------------
    def item_supports(self) -> tuple[np.ndarray, np.ndarray]:
        """All distinct items, sorted, with their int64 support counts.

        One ``sorted_distinct`` per column at its native width; the
        feature tag of column ``c`` orders its items after those of
        every earlier column, so concatenating in column order keeps
        the result sorted (the items and counts ``np.unique`` gives on
        :attr:`matrix`).  Computed once per set and read-only (a
        :meth:`row_range` view computes its own).
        """
        if self._supports is not None:
            return self._supports
        items: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for col, values in enumerate(self._columns):
            distinct, runs = sorted_distinct(values)
            tagged = distinct.astype(np.int64)
            tagged |= col << FEATURE_SHIFT
            items.append(tagged)
            counts.append(runs.astype(np.int64))
        self._supports = (
            _frozen(np.concatenate(items)),
            _frozen(np.concatenate(counts)),
        )
        return self._supports

    def frequent_items(self, min_support: int) -> dict[int, int]:
        """{item: support} for items meeting the minimum support."""
        check_count("min_support", min_support)
        items, counts = self.item_supports()
        keep = counts >= min_support
        return {
            int(item): int(count)
            for item, count in zip(items[keep], counts[keep])
        }

    # ------------------------------------------------------------------
    # Vertical view
    # ------------------------------------------------------------------
    def tidset(self, item: int) -> np.ndarray:
        """Sorted transaction indices containing ``item``."""
        col = _FEATURE_INDEX[item_feature(item)]
        return np.nonzero(self.matrix[:, col] == item)[0]

    def tidsets(self, items: list[int]) -> dict[int, np.ndarray]:
        """Tidsets for many items, grouped per feature column for speed."""
        by_col: dict[int, list[int]] = {}
        for item in items:
            col = int(item) >> FEATURE_SHIFT
            by_col.setdefault(col, []).append(int(item))
        result: dict[int, np.ndarray] = {}
        for col, col_items in by_col.items():
            column = self.matrix[:, col]
            order = np.argsort(column, kind="stable")
            sorted_col = column[order]
            for item in col_items:
                lo = np.searchsorted(sorted_col, item, side="left")
                hi = np.searchsorted(sorted_col, item, side="right")
                # A stable argsort lists equal cells in row order.
                result[item] = order[lo:hi]
        return result

    def bitmaps(self, items: Sequence[int] | np.ndarray) -> np.ndarray:
        """Bit-packed tidsets: one row of ``ceil(n / 64)`` uint64 words
        per item.

        Bit ``t`` of row ``i`` (bit ``t % 64`` of word ``t // 64``) is
        set iff transaction ``t`` holds ``items[i]``; the pad bits past
        ``n`` are zero and so is the row of an item no transaction
        holds.  The support of an item-set is the popcount of the AND of
        its items' rows (``np.bitwise_count(...).sum()``).
        """
        wanted = np.asarray(items, dtype=np.int64)
        n = len(self)
        # Little-endian words (uint64 itself on every host we run on),
        # filled through the byte view: packbits(bitorder="little")
        # numbers bits the way a little-endian word does.
        bits = np.zeros((wanted.size, -(-n // 64)), dtype="<u8")
        if n == 0:
            return bits
        packed = bits.view(np.uint8)[:, : -(-n // 8)]
        columns = wanted >> FEATURE_SHIFT
        values = wanted & VALUE_MASK
        block = max(1, BLOCK_BYTES // n)
        for col, column in enumerate(self._columns):
            # A value past the column's dtype would wrap in the cast
            # below and match the wrong flows; no flow holds it.
            rows = np.flatnonzero(
                (columns == col) & (values <= np.iinfo(column.dtype).max)
            )
            if rows.size == 0:
                continue
            column = np.ascontiguousarray(column)
            native = values.astype(column.dtype)
            for lo in range(0, rows.size, block):
                chunk = rows[lo:lo + block]
                packed[chunk] = np.packbits(
                    column == native[chunk, None], axis=1, bitorder="little"
                )
        return bits

    # ------------------------------------------------------------------
    # Horizontal helpers
    # ------------------------------------------------------------------
    def contains_mask(self, items: tuple[int, ...]) -> np.ndarray:
        """Boolean mask of transactions containing every item of
        ``items`` (used to map a mined item-set back to its flows)."""
        mask = np.ones(len(self), dtype=bool)
        for item in items:
            col = int(item) >> FEATURE_SHIFT
            mask &= self.matrix[:, col] == item
        return mask

    def support_of(self, items: tuple[int, ...]) -> int:
        """Exact support of an arbitrary item-set (reference counting)."""
        if not items:
            return len(self)
        return int(self.contains_mask(items).sum())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
