"""Unit tests for the sliding-window miner."""

import numpy as np
import pytest

from repro.errors import ConfigError, MiningError
from repro.flows.table import FlowTable
from repro.mining.eclat import eclat
from repro.mining.streaming import SlidingWindowMiner
from repro.mining.transactions import TransactionSet


def _batch(dst_port, n=100, seed=0):
    rng = np.random.default_rng(seed)
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, 2**31, n),
        dst_ip=rng.integers(0, 2**31, n),
        src_port=rng.integers(1024, 65536, n),
        dst_port=np.full(n, dst_port),
        protocol=[6] * n,
        packets=[1] * n,
        bytes_=[40] * n,
    )


def _flows_in_window(miner):
    return sum(len(batch) for batch in miner._batches)


class TestSlidingWindowMiner:
    def test_window_eviction(self):
        miner = SlidingWindowMiner(window=2, min_support=150)
        miner.push(_batch(7000, seed=0))  # the anomaly...
        miner.push(_batch(80, seed=1))
        miner.push(_batch(80, seed=2))    # ...slides out here
        result = miner.mine()
        ports = {
            s.as_dict().get(list(s.as_dict())[0])
            for s in result.itemsets
        }
        assert _flows_in_window(miner) == 200
        # Port 7000 no longer reaches support 150 inside the window.
        from repro.detection.features import Feature

        port_values = {
            s.as_dict().get(Feature.DST_PORT) for s in result.itemsets
        }
        assert 7000 not in port_values
        assert 80 in port_values

    def test_mine_matches_batch_concat(self):
        miner = SlidingWindowMiner(window=2, min_support=50)
        batches = [_batch(80, seed=0), _batch(443, seed=1)]
        for batch in batches:
            miner.push(batch)
        direct = eclat(
            TransactionSet.from_flows(FlowTable.concat(batches)), 50
        )
        assert miner.mine().all_frequent == direct.all_frequent

    def test_incremental_counts_survive_eviction(self):
        miner = SlidingWindowMiner(window=2, min_support=120)
        for seed in range(6):
            miner.push(_batch(80, seed=seed))
        # Window holds 200 flows of port 80.
        assert miner.frequent_item_count() > 0
        assert _flows_in_window(miner) == 200

    def test_screen_skips_quiet_windows(self):
        miner = SlidingWindowMiner(window=2, min_support=10_000)
        miner.push(_batch(80, seed=0))
        miner.push(_batch(80, seed=1))
        assert miner.frequent_item_count() == 0
        assert miner.mine_if_candidates() is None

    def test_screen_triggers_on_burst(self):
        miner = SlidingWindowMiner(window=2, min_support=150)
        miner.push(_batch(7000, seed=0))
        miner.push(_batch(7000, seed=1))
        result = miner.mine_if_candidates()
        assert result is not None
        assert result.itemsets

    def test_mine_before_push_rejected(self):
        miner = SlidingWindowMiner(window=2, min_support=10)
        with pytest.raises(MiningError):
            miner.mine()

    def test_validation(self):
        with pytest.raises(ConfigError, match="window"):
            SlidingWindowMiner(window=0, min_support=10)
        with pytest.raises(ConfigError, match="min_support"):
            SlidingWindowMiner(window=1, min_support=0)

    def test_maximal_only_forwarded_to_miner(self):
        batch = _batch(80)
        maximal = SlidingWindowMiner(window=1, min_support=50)
        everything = SlidingWindowMiner(
            window=1, min_support=50, maximal_only=False
        )
        maximal.push(batch)
        everything.push(batch)
        all_result = everything.mine()
        max_result = maximal.mine()
        assert all_result.all_frequent == max_result.all_frequent
        # Non-maximal subsets stay in the report when asked for.
        assert len(all_result.itemsets) > len(max_result.itemsets)

    def test_plain_two_argument_custom_miner_still_works(self):
        """The documented miner= extension point takes (transactions,
        min_support); the default maximal_only must not force a third
        keyword onto such callables."""
        calls = []

        def custom(transactions, min_support):
            calls.append(min_support)
            return eclat(transactions, min_support)

        miner = SlidingWindowMiner(window=1, min_support=50, miner=custom)
        miner.push(_batch(80))
        result = miner.mine()
        assert calls == [50]
        assert result.itemsets

    def test_two_argument_miner_cannot_claim_maximal_only_false(self):
        """A custom miner that cannot receive maximal_only must be
        rejected up front rather than silently ignoring the request
        (or blowing up at the first mine())."""

        def custom(transactions, min_support):
            return eclat(transactions, min_support)

        with pytest.raises(MiningError, match="maximal_only"):
            SlidingWindowMiner(
                window=1, min_support=50, miner=custom, maximal_only=False
            )
        # Kwarg-capable custom miners are still accepted.
        SlidingWindowMiner(
            window=1,
            min_support=50,
            miner=lambda tx, s, **kw: eclat(tx, s, **kw),
            maximal_only=False,
        )


class TestEvictionConsistency:
    """ISSUE 2 satellite: incremental counts must stay exact across
    arbitrarily many evictions, and the candidate screen must never
    skip a window whose full mining result is non-empty."""

    @staticmethod
    def _recount(batches):
        from collections import Counter

        counts: Counter[int] = Counter()
        for batch in batches:
            items, supports = (
                TransactionSet.from_flows(batch).item_supports()
            )
            for item, support in zip(items.tolist(), supports.tolist()):
                counts[item] += support
        return counts

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_counts_equal_recount_after_many_evictions(self, window):
        ports = [80, 443, 7000, 80, 25, 53, 80, 8080, 443, 7000]
        miner = SlidingWindowMiner(window=window, min_support=10)
        batches = []
        for i, port in enumerate(ports):
            batch = _batch(port, n=50 + 10 * i, seed=i)
            batches.append(batch)
            miner.push(batch)
            # Invariant holds after EVERY push, not only at the end.
            assert miner._item_counts == self._recount(batches[-window:])
        assert miner.batches == window
        assert _flows_in_window(miner) == sum(
            len(b) for b in batches[-window:]
        )

    def test_counts_with_empty_batches_interleaved(self):
        miner = SlidingWindowMiner(window=2, min_support=10)
        empty = _batch(80, n=1, seed=0).select(np.zeros(0, dtype=np.int64))
        sequence = [_batch(80, seed=1), empty, _batch(443, seed=2), empty]
        for i, batch in enumerate(sequence):
            miner.push(batch)
            assert miner._item_counts == self._recount(
                sequence[max(0, i - 1): i + 1]
            )

    @pytest.mark.parametrize("min_support", [5, 50, 150, 400])
    def test_screen_never_skips_nonempty_window(self, min_support):
        """mine_if_candidates may only return None when mine() itself
        would find nothing (any frequent item-set implies a frequent
        single item, which the screen counts exactly)."""
        miner = SlidingWindowMiner(window=2, min_support=min_support)
        for i, port in enumerate([80, 80, 7000, 443, 7000, 7000]):
            miner.push(_batch(port, seed=i))
            full = miner.mine()
            screened = miner.mine_if_candidates()
            if full.itemsets:
                assert screened is not None
                assert screened.all_frequent == full.all_frequent
            else:
                # The screen may still mine (single frequent items with
                # no item-sets is impossible here, but stay strict):
                # whenever it does skip, the full result must be empty.
                if screened is None:
                    assert not full.itemsets
