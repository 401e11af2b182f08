"""Common result type shared by the three frequent item-set miners."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mining.items import FrequentItemset, itemsets_sorted


@dataclass(frozen=True, slots=True)
class LevelStats:
    """Per-level bookkeeping mirroring the Table II narrative.

    ``found`` frequent k-item-sets were discovered; ``kept`` of them
    survived maximal filtering (the rest were subsets of frequent
    (k+1)-item-sets).
    """

    size: int
    found: int
    kept: int

    @property
    def removed(self) -> int:
        return self.found - self.kept


@dataclass(frozen=True)
class MiningResult:
    """Output of a frequent item-set miner.

    Attributes:
        algorithm: "apriori", "fpgrowth", or "eclat".
        itemsets: the *maximal* frequent item-sets (the paper's modified
            output), in canonical report order.
        all_frequent: every frequent item-set with its support, keyed by
            the sorted tuple of encoded items (needed for rule
            derivation and cross-miner equivalence checks).
        level_stats: per-size found/kept counts.
        n_transactions: input size.
        min_support: the absolute support threshold used.
    """

    algorithm: str
    itemsets: list[FrequentItemset]
    all_frequent: dict[tuple[int, ...], int]
    level_stats: list[LevelStats]
    n_transactions: int
    min_support: int

    @property
    def max_size(self) -> int:
        """Largest frequent item-set size found (0 when none)."""
        return max((stats.size for stats in self.level_stats), default=0)

    def summary_lines(self) -> list[str]:
        """Human-readable mining summary (used by reports and the CLI)."""
        lines = [
            f"{self.algorithm}: {self.n_transactions} transactions, "
            f"min support {self.min_support}",
        ]
        for stats in self.level_stats:
            lines.append(
                f"  {stats.size}-item-sets: {stats.found} frequent, "
                f"{stats.removed} removed as non-maximal, {stats.kept} kept"
            )
        lines.append(f"  maximal item-sets: {len(self.itemsets)}")
        return lines


def build_result(
    algorithm: str,
    all_frequent: dict[tuple[int, ...], int],
    maximal: dict[tuple[int, ...], int],
    n_transactions: int,
    min_support: int,
) -> MiningResult:
    """Assemble a :class:`MiningResult` from frequency dictionaries."""
    sizes = sorted({len(items) for items in all_frequent})
    level_stats = [
        LevelStats(
            size=k,
            found=sum(1 for items in all_frequent if len(items) == k),
            kept=sum(1 for items in maximal if len(items) == k),
        )
        for k in sizes
    ]
    itemsets = itemsets_sorted(
        [
            FrequentItemset(items=items, support=support)
            for items, support in maximal.items()
        ]
    )
    return MiningResult(
        algorithm=algorithm,
        itemsets=itemsets,
        all_frequent=dict(all_frequent),
        level_stats=level_stats,
        n_transactions=n_transactions,
        min_support=min_support,
    )
