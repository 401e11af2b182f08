"""Sliding-window frequent item-set mining (paper Section V).

The paper names "optimizing ... frequent item-set mining for dealing
with big network traffic data including stream processing" as an open
problem and cites Li & Deng's sliding-window Eclat variant.  This module
provides that operating mode: a :class:`SlidingWindowMiner` holds the
last ``window`` interval batches, maintains incremental item supports
for cheap candidate pre-screening, and mines the window on demand.
"""

from __future__ import annotations

import inspect
from collections import Counter, deque

from repro.errors import CheckpointError, MiningError, check_count
from repro.flows.table import FlowTable
from repro.mining.eclat import eclat
from repro.mining.result import MiningResult
from repro.mining.transactions import TransactionSet
from repro.state import count, listof, read_fields


def _accepts_maximal_only(miner) -> bool:
    try:
        parameters = inspect.signature(miner).parameters
    except (TypeError, ValueError):  # builtins without introspection
        return False
    return "maximal_only" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in parameters.values()
    )


class SlidingWindowMiner:
    """Mine frequent item-sets over the last N measurement intervals.

    Usage::

        miner = SlidingWindowMiner(window=4, min_support=500)
        for interval in intervals:
            miner.push(interval.flows)
            result = miner.mine_if_candidates()  # None: nothing frequent
    """

    def __init__(
        self,
        window: int,
        min_support: int,
        miner=eclat,
        maximal_only: bool = True,
    ):
        check_count("window", window)
        check_count("min_support", min_support)
        if not maximal_only and not _accepts_maximal_only(miner):
            # Fail here, not at the first mine(): a plain two-argument
            # custom miner cannot honor the request, and silently
            # returning maximal-only results would be worse.
            raise MiningError(
                "maximal_only=False requires a miner accepting the "
                "maximal_only keyword argument"
            )
        self.window = window
        self.min_support = min_support
        self.maximal_only = maximal_only
        self._miner = miner
        self._batches: deque[FlowTable] = deque()
        self._item_counts: Counter[int] = Counter()
        self._pushed = 0

    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        return len(self._batches)

    def push(self, flows: FlowTable) -> None:
        """Add one interval's flows; evicts the oldest batch when the
        window is full.  Incremental item counts stay consistent."""
        self._batches.append(flows)
        self._add_counts(flows, sign=+1)
        self._pushed += 1
        if len(self._batches) > self.window:
            evicted = self._batches.popleft()
            self._add_counts(evicted, sign=-1)

    def fill(self, flows: FlowTable) -> None:
        """Put ``flows`` into the newest slot, which must have been
        pushed empty: a caller that slides the window once per interval
        (``push(FlowTable.empty())``) fills in the interval's flows
        only when it turns out to have any worth mining."""
        if not self._batches or len(self._batches[-1]):
            raise MiningError("fill needs an empty newest batch")
        self._batches[-1] = flows
        self._add_counts(flows, sign=+1)

    def _add_counts(self, flows: FlowTable, sign: int) -> None:
        transactions = TransactionSet.from_flows(flows)
        items, counts = transactions.item_supports()
        for item, count in zip(items.tolist(), counts.tolist()):
            new = self._item_counts[item] + sign * count
            if new:
                self._item_counts[item] = new
            else:
                del self._item_counts[item]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot: the window's batches and push counter.

        The incremental item supports are deliberately NOT serialized -
        :meth:`from_state` recomputes them by replaying
        :meth:`_add_counts` over the restored batches, so a checkpoint
        can never carry counts that disagree with its own window.
        """
        return {
            "batches": [batch.to_state() for batch in self._batches],
            "pushed": self._pushed,
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this miner (which must be
        configured with the same window)."""
        fields = read_fields(
            "window-miner checkpoint state", state, CheckpointError,
            batches=listof(FlowTable.from_state), pushed=count,
        )
        batches = fields["batches"]
        if len(batches) > self.window:
            raise CheckpointError(
                f"checkpoint holds {len(batches)} window batches but "
                f"the miner's window is {self.window}; restore with the "
                f"configuration the checkpoint was written under"
            )
        self._batches.clear()
        self._item_counts.clear()
        for batch in batches:
            self._batches.append(batch)
            self._add_counts(batch, sign=+1)
        self._pushed = fields["pushed"]

    # ------------------------------------------------------------------
    def frequent_item_count(self) -> int:
        """Number of single items currently frequent (cheap screen;
        mining is pointless while this is zero)."""
        return sum(
            1 for count in self._item_counts.values()
            if count >= self.min_support
        )

    def window_flows(self) -> FlowTable:
        """The concatenated flows currently inside the window."""
        return FlowTable.concat(list(self._batches))

    def mine(self) -> MiningResult:
        """Run the configured miner over the concatenated window."""
        if not self._batches:
            raise MiningError("push at least one interval before mining")
        transactions = TransactionSet.from_flows(self.window_flows())
        if self.maximal_only:
            # The miners' own default; omitting the kwarg keeps plain
            # two-argument custom callables working as documented.
            return self._miner(transactions, self.min_support)
        return self._miner(
            transactions, self.min_support, maximal_only=False
        )

    def mine_if_candidates(self) -> MiningResult | None:
        """Mine only when the incremental screen finds frequent items -
        the streaming fast path (most windows of quiet traffic skip the
        full mining run entirely when min_support exceeds baseline
        concentration)."""
        if self.frequent_item_count() == 0:
            return None
        return self.mine()
