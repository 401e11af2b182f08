"""Property-based tests: the miners against first principles.

Hypothesis generates small random transaction sets; we assert that the
production miners agree with an obviously-correct brute-force reference
and with each other, and that the structural invariants of frequent
item-set families hold (anti-monotonicity, downward closure,
maximality).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mining.transactions as transactions_module
from repro.detection.features import MINING_FEATURES
from repro.flows.table import FlowTable
from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.items import (
    FEATURE_SHIFT,
    VALUE_MASK,
    FrequentItemset,
    itemsets_sorted,
)
from repro.mining.maximal import filter_maximal, is_maximal_in
from repro.mining.partition import count_candidates, son
from repro.mining.streaming import SlidingWindowMiner
from repro.mining.transactions import TRANSACTION_WIDTH, TransactionSet
from tests.mining.reference import brute_force_frequent, brute_force_maximal


def _dense_flows(rng, n, cardinality):
    """``n`` flows whose every column draws from ``cardinality`` values."""
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, cardinality, n),
        dst_ip=rng.integers(0, cardinality, n),
        src_port=rng.integers(0, cardinality, n),
        dst_port=rng.integers(0, cardinality, n),
        protocol=rng.integers(0, cardinality, n),
        packets=rng.integers(1, cardinality + 1, n),
        bytes_=rng.integers(40, 40 + cardinality, n),
    )


@st.composite
def transaction_sets(draw):
    """Random small flow tables with dense value collisions."""
    n = draw(st.integers(min_value=1, max_value=30))
    cardinality = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return TransactionSet.from_flows(_dense_flows(rng, n, cardinality))


support_strategy = st.integers(min_value=1, max_value=12)


@settings(max_examples=60, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_apriori_equals_brute_force(transactions, min_support):
    result = apriori(transactions, min_support)
    assert result.all_frequent == brute_force_frequent(
        transactions, min_support
    )


@settings(max_examples=60, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_three_miners_agree(transactions, min_support):
    a = apriori(transactions, min_support).all_frequent
    f = fpgrowth(transactions, min_support).all_frequent
    e = eclat(transactions, min_support).all_frequent
    assert a == f == e


@settings(max_examples=60, deadline=None)
@given(
    transactions=transaction_sets(),
    min_support=support_strategy,
    partitions=st.integers(min_value=1, max_value=6),
)
def test_son_equals_apriori_at_any_partition_count(
    transactions, min_support, partitions
):
    reference = apriori(transactions, min_support)
    result = son(transactions, min_support, partitions=partitions)
    assert result.all_frequent == reference.all_frequent
    assert [(s.items, s.support) for s in result.itemsets] == [
        (s.items, s.support) for s in reference.itemsets
    ]


@st.composite
def window_pushes(draw):
    """A window of 1-4 intervals and the interval tables pushed through
    it, empty ones included; each table is pushed whole or, as a
    session does, pushed empty and then filled."""
    window = draw(st.integers(min_value=1, max_value=4))
    cardinality = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sizes = draw(st.lists(st.integers(0, 15), min_size=1, max_size=8))
    fills = draw(
        st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))
    )
    tables = [_dense_flows(rng, n, cardinality) for n in sizes]
    return window, list(zip(tables, fills, strict=True))


@settings(max_examples=60, deadline=None)
@given(drawn=window_pushes(), min_support=st.integers(1, 8))
def test_sliding_window_equals_apriori_of_the_window(drawn, min_support):
    """After every push the window miner (Eclat over its batches, item
    supports kept incrementally) answers what a fresh Apriori run over
    the concatenation of the last ``window`` tables answers: every
    frequent item-set, and the maximal ones."""
    window, pushes = drawn
    maximal = SlidingWindowMiner(window, min_support)
    everything = SlidingWindowMiner(window, min_support, maximal_only=False)
    for pushed, (flows, fill) in enumerate(pushes, start=1):
        for miner in (maximal, everything):
            if fill:
                miner.push(FlowTable.empty())
                miner.fill(flows)
            else:
                miner.push(flows)
        inside = [table for table, _ in pushes[max(0, pushed - window):pushed]]
        transactions = TransactionSet.from_flows(FlowTable.concat(inside))
        reference = apriori(transactions, min_support, maximal_only=False)
        assert everything.mine().all_frequent == reference.all_frequent
        assert maximal.mine().itemsets == (
            apriori(transactions, min_support).itemsets
        )


@settings(max_examples=40, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_counting_backends_agree(transactions, min_support):
    vertical = apriori(transactions, min_support, counting="vertical")
    horizontal = apriori(transactions, min_support, counting="horizontal")
    assert vertical.all_frequent == horizontal.all_frequent


@settings(max_examples=60, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_supports_are_exact_and_antimonotone(transactions, min_support):
    frequent = apriori(transactions, min_support).all_frequent
    for items, support in frequent.items():
        assert support == transactions.support_of(items)
        assert support >= min_support
        if len(items) >= 2:
            for drop in range(len(items)):
                subset = items[:drop] + items[drop + 1:]
                assert subset in frequent  # downward closure
                assert frequent[subset] >= support  # anti-monotone


@settings(max_examples=60, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_maximal_filter_is_correct(transactions, min_support):
    frequent = apriori(transactions, min_support).all_frequent
    maximal = filter_maximal(frequent)
    assert maximal == brute_force_maximal(frequent)
    # Supports pass through the filter unchanged.
    assert all(frequent[items] == s for items, s in maximal.items())
    for items in frequent:
        assert (items in maximal) == is_maximal_in(items, frequent)


@settings(max_examples=40, deadline=None)
@given(transactions=transaction_sets(), min_support=support_strategy)
def test_every_frequent_itemset_is_subset_of_a_maximal_one(
    transactions, min_support
):
    result = apriori(transactions, min_support)
    maximal_sets = [set(s.items) for s in result.itemsets]
    for items in result.all_frequent:
        assert any(set(items) <= m for m in maximal_sets)


@settings(max_examples=40, deadline=None)
@given(
    transactions=transaction_sets(),
    low=st.integers(min_value=1, max_value=6),
    delta=st.integers(min_value=1, max_value=6),
)
def test_higher_support_yields_subset(transactions, low, delta):
    loose = apriori(transactions, low).all_frequent
    strict = apriori(transactions, low + delta).all_frequent
    assert set(strict) <= set(loose)
    for items, support in strict.items():
        assert loose[items] == support


# ----------------------------------------------------------------------
# The bit-packed vertical view against the horizontal reference
# ----------------------------------------------------------------------
#: Transaction counts around the 64-bit word boundary, then a few words.
WORD_EDGES = st.sampled_from([0, 1, 63, 64, 65])


@st.composite
def tagged_matrices(draw):
    """``(n, 7)`` matrices of column-tagged items, built directly (not
    through a flow table) so values reach both ends of the 48 bits."""
    n = draw(WORD_EDGES | st.integers(min_value=2, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    matrix = np.empty((n, TRANSACTION_WIDTH), dtype=np.int64)
    for col in range(TRANSACTION_WIDTH):
        pool = np.unique(
            np.concatenate(
                ([0, VALUE_MASK], rng.integers(0, VALUE_MASK, 3))
            )
        )[: draw(st.integers(min_value=1, max_value=5))]
        matrix[:, col] = (col << FEATURE_SHIFT) | rng.choice(pool, n)
    return TransactionSet(matrix), rng


def _popcounts(bits):
    return np.bitwise_count(bits).sum(axis=1).tolist()


def _some_itemsets(transactions, rng, count=12):
    """Item-sets worth counting: sub-rows (support >= 1), items mixed
    across rows (often support 0), two items of one feature (always 0),
    a repeated item, and the empty set."""
    matrix = transactions.matrix
    if len(matrix) == 0:
        return [(), (3 << FEATURE_SHIFT,)]
    itemsets = [()]
    for _ in range(count):
        width = int(rng.integers(1, TRANSACTION_WIDTH + 1))
        cols = np.sort(rng.choice(TRANSACTION_WIDTH, width, replace=False))
        same_row = matrix[rng.integers(len(matrix)), cols]
        any_rows = matrix[rng.integers(len(matrix), size=width), cols]
        itemsets += [tuple(same_row.tolist()), tuple(any_rows.tolist())]
    first, other = int(matrix[0, 0]), int(matrix[0, 0]) ^ 1
    itemsets += [(first, other), (first, first)]
    return itemsets


@settings(max_examples=60, deadline=None)
@given(drawn=tagged_matrices())
def test_bitmaps_are_the_tidsets_bit_for_bit(drawn):
    transactions, _ = drawn
    n = len(transactions)
    items, counts = transactions.item_supports()
    # A column holds at most five distinct values: one of six is absent.
    absent = next(
        item
        for item in range(6 << FEATURE_SHIFT, (6 << FEATURE_SHIFT) + 6)
        if item not in items
    )
    wanted = items.tolist() + [absent]
    bits = transactions.bitmaps(wanted)
    assert bits.dtype == np.uint64
    assert bits.shape == (len(wanted), -(-n // 64))
    unpacked = np.unpackbits(
        bits.view(np.uint8), axis=1, bitorder="little"
    ).astype(bool)
    assert not unpacked[:, n:].any()  # pad bits are zero
    for row, item in zip(unpacked, wanted):
        assert (row[:n] == transactions.contains_mask((item,))).all()
    assert _popcounts(bits) == [
        transactions.support_of((item,)) for item in wanted
    ]
    assert _popcounts(bits)[:-1] == counts.tolist()
    assert not bits[-1].any()


@settings(max_examples=60, deadline=None)
@given(drawn=tagged_matrices())
def test_and_of_rows_counts_any_itemset(drawn):
    transactions, rng = drawn
    for itemset in _some_itemsets(transactions, rng):
        if not itemset:
            continue
        joined = np.bitwise_and.reduce(transactions.bitmaps(itemset), axis=0)
        assert int(np.bitwise_count(joined).sum()) == transactions.support_of(
            itemset
        )


@settings(max_examples=60, deadline=None)
@given(drawn=tagged_matrices())
def test_count_candidates_equals_support_of(drawn):
    transactions, rng = drawn
    candidates = _some_itemsets(transactions, rng)
    expected = {c: transactions.support_of(c) for c in candidates}
    counted = count_candidates(transactions, candidates)
    assert counted == expected
    assert list(counted) == list(expected)  # candidate order is kept
    with mock.patch.object(transactions_module, "BLOCK_BYTES", 1):
        assert count_candidates(transactions, candidates) == expected


# ----------------------------------------------------------------------
# The column form against the tagged-int64 encode it replaced
# ----------------------------------------------------------------------
#: Cell values at the edges of the uint32 columns and of the 2^48 clip.
WIDE_EDGES = (0, 2**32 - 1)
COUNT_EDGES = (VALUE_MASK, VALUE_MASK + 1, 2**64 - 1)


@st.composite
def edge_flow_tables(draw):
    """Flow tables around the word boundary whose columns each draw
    from a few values - type edges among them - so item-sets recur."""
    n = draw(WORD_EDGES | st.integers(min_value=2, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def column(edges, high):
        picked = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
        pool = np.concatenate(
            (
                np.array(picked, dtype=np.uint64),
                rng.integers(0, high, draw(st.integers(1, 3)), dtype=np.uint64),
            )
        )
        return rng.choice(pool, n)

    narrow = [column(WIDE_EDGES, 2**32) for _ in range(5)]
    packets, bytes_ = (column(COUNT_EDGES, 2**64) for _ in range(2))
    return FlowTable.from_arrays(*narrow, packets=packets, bytes_=bytes_)


def _tagged_reference(flows):
    """The tagged-int64 encode: clip each column in its unsigned
    domain, tag it with its feature, one int64 matrix."""
    matrix = np.empty((len(flows), TRANSACTION_WIDTH), dtype=np.int64)
    for col, feature in enumerate(MINING_FEATURES):
        values = feature.extract(flows).astype(np.uint64)
        np.minimum(values, VALUE_MASK, out=values)
        values |= col << FEATURE_SHIFT
        matrix[:, col] = values
    return matrix


def _reference_bitmaps(matrix, items):
    """One little-endian word row per item, from an equality scan."""
    n = len(matrix)
    bits = np.zeros((len(items), -(-n // 64)), dtype="<u8")
    for row, item in enumerate(items):
        packed = np.packbits((matrix == item).any(axis=1), bitorder="little")
        bits.view(np.uint8)[row, : packed.size] = packed
    return bits


@settings(max_examples=40, deadline=None)
@given(
    flows=edge_flow_tables(),
    min_support=st.integers(min_value=1, max_value=12),
    partitions=st.integers(min_value=1, max_value=4),
)
def test_columns_equal_the_tagged_matrix_encode(flows, min_support, partitions):
    reference = _tagged_reference(flows)
    transactions = TransactionSet.from_flows(flows)
    assert transactions.matrix.dtype == reference.dtype
    assert np.array_equal(transactions.matrix, reference)

    items, counts = np.unique(reference, return_counts=True)
    got_items, got_counts = TransactionSet.from_flows(flows).item_supports()
    assert (got_items.dtype, got_counts.dtype) == (items.dtype, counts.dtype)
    assert np.array_equal(got_items, items)
    assert np.array_equal(got_counts, counts)

    # Present items, then absent ones: a neighbour value, a narrow
    # column's value past 2^32 (wraps onto a present value if cast
    # blindly), an unknown feature tag and a negative item.
    wanted = items.tolist()
    wanted += [item ^ 1 for item in wanted[:4]]
    wanted += [
        item + 2**32 for item in wanted if item >> FEATURE_SHIFT < 5
    ][:4]
    wanted += [TRANSACTION_WIDTH << FEATURE_SHIFT, -1]
    bits = TransactionSet.from_flows(flows).bitmaps(wanted)
    assert bits.dtype == np.uint64
    assert np.array_equal(bits, _reference_bitmaps(reference, wanted))

    expected = brute_force_frequent(TransactionSet(reference), min_support)
    for miner in (apriori, eclat, fpgrowth):
        mined = miner(TransactionSet.from_flows(flows), min_support)
        assert mined.all_frequent == expected, miner.__name__
    mined = son(
        TransactionSet.from_flows(flows), min_support, partitions=partitions
    )
    assert mined.all_frequent == expected


def _signature(result):
    return (
        list(result.all_frequent.items()),
        result.itemsets,
        result.level_stats,
    )


@settings(max_examples=40, deadline=None)
@given(
    drawn=tagged_matrices(),
    min_support=st.integers(min_value=1, max_value=40),
    maximal_only=st.booleans(),
)
def test_backends_and_brute_force_agree_order_included(
    drawn, min_support, maximal_only
):
    transactions, _ = drawn
    vertical = apriori(
        transactions, min_support, maximal_only, counting="vertical"
    )
    horizontal = apriori(
        transactions, min_support, maximal_only, counting="horizontal"
    )
    assert _signature(vertical) == _signature(horizontal)
    # Apriori's order is level by level, each level sorted.
    brute = brute_force_frequent(transactions, min_support)
    ordered = sorted(brute, key=lambda items: (len(items), items))
    assert list(vertical.all_frequent) == ordered
    assert vertical.all_frequent == brute
    kept = brute_force_maximal(brute) if maximal_only else brute
    assert vertical.itemsets == itemsets_sorted(
        [FrequentItemset(items, support) for items, support in kept.items()]
    )
    # One candidate (and one item of the view) per block: a level
    # spanning many blocks is the same level.
    with mock.patch.object(transactions_module, "BLOCK_BYTES", 1):
        blocked = apriori(transactions, min_support, maximal_only)
    assert _signature(blocked) == _signature(vertical)
