"""Property-based tests for FlowTable and interval windowing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FlowError, TraceFormatError
from repro.flows.io import (
    iter_csv,
    iter_csv_handle,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)
from repro.flows.stream import iter_intervals
from repro.flows.table import ALL_COLUMNS, ROW_DTYPE, FlowTable


@st.composite
def flow_tables(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, 2**32, n),
        dst_ip=rng.integers(0, 2**32, n),
        src_port=rng.integers(0, 2**16, n),
        dst_port=rng.integers(0, 2**16, n),
        protocol=rng.integers(0, 256, n),
        packets=rng.integers(1, 10**6, n),
        bytes_=rng.integers(40, 10**9, n),
        start=rng.uniform(0.0, 5000.0, n),
        label=rng.integers(-1, 10, n),
    )


@settings(max_examples=50, deadline=None)
@given(table=flow_tables())
def test_csv_round_trip(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(table, path)
    assert read_csv(path) == table


def _column(width_max, lo=0):
    """Cells of one integer column, the type's extremes included."""
    return st.one_of(
        st.sampled_from([lo, 0, 1, width_max - 1, width_max]),
        st.integers(min_value=lo, max_value=width_max),
    )


_EDGE_ROWS = st.lists(
    st.tuples(
        _column(2**32 - 1),
        _column(2**32 - 1),
        _column(2**32 - 1),
        _column(2**32 - 1),
        _column(2**32 - 1),
        _column(2**64 - 1),
        _column(2**64 - 1),
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 1e300, -1e300]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        _column(2**63 - 1, lo=-(2**63)),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(rows=_EDGE_ROWS, chunk_rows=st.sampled_from([1, 3, 65536]))
def test_csv_round_trip_is_exact_at_the_type_edges(
    rows, chunk_rows, tmp_path_factory
):
    """write_csv -> iter_csv returns every column bit-for-bit, dtypes
    included, whatever the batch size."""
    table = FlowTable.from_rows(np.array(rows, dtype=ROW_DTYPE))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(table, path)
    chunks = list(iter_csv(path, chunk_rows=chunk_rows))
    assert all(0 < len(chunk) <= chunk_rows for chunk in chunks)
    back = FlowTable.concat(chunks)
    for name in ALL_COLUMNS:
        assert back.column(name).dtype == table.column(name).dtype
        # tobytes: -0.0 and 0.0 must not compare equal here.
        assert back.column(name).tobytes() == table.column(name).tobytes()


_CELLS = st.one_of(
    st.sampled_from(["1", "23", '"4"', '"5', '6"', '""', " 7", ""]),
    st.text(alphabet='12" x', max_size=4),
)


@st.composite
def _lines(draw):
    """Mostly well-formed rows: empty, one odd cell, or ragged."""
    if draw(st.integers(0, 5)) == 0:
        return ",".join(draw(st.lists(_CELLS, max_size=10)))
    cells = ["1"] * len(ALL_COLUMNS)
    cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
    return ",".join(cells)


def _decode(lines, chunk_rows):
    try:
        chunks = list(iter_csv_handle(lines, chunk_rows=chunk_rows))
    except TraceFormatError as exc:
        return str(exc)
    return FlowTable.concat(chunks) if chunks else FlowTable.empty()


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(_lines(), max_size=6),
    line_end=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.integers(min_value=1, max_value=6),
)
@example(
    body=['1,1,1,1,1,1,1,1,"5', "1,1,1,1,1,1,1,1,1"],
    line_end="\n",
    chunk_rows=1,
)
def test_csv_verdict_does_not_depend_on_the_batch_size(
    body, line_end, chunk_rows
):
    """Quotes included, a body decodes to the same flows - or is
    refused naming the same line - at every ``chunk_rows``."""
    lines = [line + line_end for line in [",".join(ALL_COLUMNS), *body]]
    assert _decode(lines, chunk_rows) == _decode(lines, 65536)


@settings(max_examples=50, deadline=None)
@given(table=flow_tables())
def test_npz_round_trip(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("npz") / "t.npz"
    write_npz(table, path)
    assert read_npz(path) == table


@settings(max_examples=100, deadline=None)
@given(table=flow_tables())
def test_concat_split_identity(table):
    if len(table) == 0:
        return
    half = len(table) // 2
    first = table.select(np.arange(half))
    second = table.select(np.arange(half, len(table)))
    assert FlowTable.concat([first, second]) == table


@settings(max_examples=100, deadline=None)
@given(table=flow_tables(), data=st.data())
def test_select_equals_per_column_fancy_indexing(table, data):
    """A mask (empty, full or drawn) or an index array (empty, drawn,
    with duplicates) selects what indexing every column by it selects,
    dtypes included, into read-only columns."""
    n = len(table)
    drawn_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    drawn_rows = data.draw(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n)
    )
    rows = np.array(drawn_rows, dtype=np.intp)
    selections = [
        np.zeros(n, dtype=bool),
        np.ones(n, dtype=bool),
        np.array(drawn_mask, dtype=bool),
        rows,
        np.concatenate((rows, rows[::-1])),  # every row twice
    ]
    for sel in selections:
        selected = table.select(sel)
        for name in ALL_COLUMNS:
            got, want = selected.column(name), table.column(name)[sel]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
    with pytest.raises(FlowError, match="mask length"):
        table.select(np.ones(n + 1, dtype=bool))
    if n:
        with pytest.raises(FlowError, match="mask length"):
            table.select(np.ones(n - 1, dtype=bool))


@settings(max_examples=100, deadline=None)
@given(table=flow_tables(), interval=st.floats(min_value=10.0, max_value=2000.0))
def test_windowing_partitions_flows(table, interval):
    if len(table) == 0:
        return
    views = list(iter_intervals(table, interval, origin=0.0))
    assert sum(len(v) for v in views) == len(table)
    for view in views:
        if len(view):
            assert (view.flows.start >= view.start).all()
            assert (view.flows.start < view.end).all()


@settings(max_examples=100, deadline=None)
@given(table=flow_tables())
def test_sort_by_start_is_permutation(table):
    ordered = table.sort_by_start()
    assert len(ordered) == len(table)
    assert (np.diff(ordered.start) >= 0).all()
    assert sorted(table.packets.tolist()) == sorted(ordered.packets.tolist())


@settings(max_examples=100, deadline=None)
@given(table=flow_tables())
def test_anomalous_mask_consistent_with_events(table):
    mask_count = int(table.anomalous_mask.sum())
    by_event = sum(
        len(table.flows_of_event(int(e))) for e in table.event_labels()
    )
    assert mask_count == by_event
