"""Unit tests for trace serialization (CSV and NPZ) and decoding (CSV
and JSONL)."""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.flows.io import (
    iter_csv,
    iter_csv_handle,
    iter_jsonl_handle,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)
from repro.flows.record import FlowRecord
from repro.flows.table import ALL_COLUMNS, ROW_DTYPE, FlowTable
from repro.obs.metrics import MetricsRegistry


class TestCsv:
    def test_round_trip(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        assert read_csv(path) == tiny_flows

    def test_round_trip_preserves_float_start(self, tmp_path):
        table = FlowTable.from_arrays(
            [1], [2], [3], [4], [6], [1], [40], start=[123.456789]
        )
        path = tmp_path / "trace.csv"
        write_csv(table, path)
        assert read_csv(path).start[0] == pytest.approx(123.456789)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError, match="header"):
            read_csv(path)

    def test_ragged_row_rejected(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        with open(path, "a") as handle:
            handle.write("1,2,3\n")
        with pytest.raises(TraceFormatError, match="fields"):
            read_csv(path)

    def test_non_numeric_cell_rejected(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        with open(path, "a") as handle:
            handle.write("x," + ",".join(["1"] * 8) + "\n")
        with pytest.raises(TraceFormatError, match="bad value"):
            read_csv(path)

    def test_trailing_blank_lines_tolerated(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert read_csv(path) == tiny_flows

    def test_rows_read_back_as_flow_records(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        records = list(read_csv(path))
        assert all(isinstance(record, FlowRecord) for record in records)
        assert records == list(tiny_flows)

    def test_records_written_through_a_table(self, tmp_path):
        records = [FlowRecord(1, 2, 3, 4, 6, 1, 40, start=0.5)]
        path = tmp_path / "records.csv"
        write_csv(FlowTable.from_records(records), path)
        assert read_csv(path).row(0) == records[0]


class TestIterCsv:
    def test_chunks_reassemble_to_full_table(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        chunks = list(iter_csv(path, chunk_rows=2))
        assert len(chunks) == 3
        assert all(len(chunk) == 2 for chunk in chunks)
        assert FlowTable.concat(chunks) == tiny_flows

    def test_ragged_tail_chunk(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        chunks = list(iter_csv(path, chunk_rows=4))
        assert [len(chunk) for chunk in chunks] == [4, 2]
        assert FlowTable.concat(chunks) == tiny_flows

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(FlowTable.empty(), path)
        assert list(iter_csv(path)) == []
        assert len(read_csv(path)) == 0

    def test_error_carries_line_number_mid_stream(
        self, tiny_flows, tmp_path
    ):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        with open(path, "a") as handle:
            handle.write("1,2,3\n")
        chunks = iter_csv(path, chunk_rows=2)
        next(chunks)  # rows 1-2 parse fine
        next(chunks)  # rows 3-4 parse fine
        with pytest.raises(TraceFormatError, match="fields"):
            list(chunks)

    def test_invalid_chunk_rows_rejected(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        with pytest.raises(TraceFormatError, match="chunk_rows"):
            list(iter_csv(path, chunk_rows=0))

    def test_matches_read_csv(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        assert FlowTable.concat(list(iter_csv(path, chunk_rows=1))) == (
            read_csv(path)
        )


class TestIterCsvHandle:
    def test_reads_pathless_text_stream(self, tiny_flows, tmp_path):
        import io

        from repro.flows.io import iter_csv_handle

        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        handle = io.StringIO(path.read_text())
        chunks = list(iter_csv_handle(handle, chunk_rows=4))
        assert [len(chunk) for chunk in chunks] == [4, 2]
        assert FlowTable.concat(chunks) == tiny_flows

    def test_error_labelled_with_stream_name(self):
        import io

        from repro.flows.io import iter_csv_handle

        handle = io.StringIO("not,a,trace\n")
        with pytest.raises(TraceFormatError, match="<stdin>"):
            list(iter_csv_handle(handle, name="<stdin>"))

    def test_empty_stream_rejected(self):
        import io

        from repro.flows.io import iter_csv_handle

        with pytest.raises(TraceFormatError, match="empty"):
            list(iter_csv_handle(io.StringIO("")))

    @pytest.mark.parametrize("bad_start", ["nan", "inf", "-inf"])
    def test_non_finite_start_rejected_with_line_number(
        self, tiny_flows, tmp_path, bad_start
    ):
        path = tmp_path / "trace.csv"
        write_csv(tiny_flows, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[7] = bad_start  # the start column
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=r":4: non-finite"):
            list(iter_csv(path))


class TestNpz:
    def test_round_trip(self, tiny_flows, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(tiny_flows, path)
        assert read_npz(path) == tiny_flows

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_npz(FlowTable.empty(), path)
        assert len(read_npz(path)) == 0

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, src_ip=np.array([1]))
        with pytest.raises(TraceFormatError, match="missing columns"):
            read_npz(path)

    def test_large_trace_round_trip(self, tmp_path, rng):
        n = 5000
        table = FlowTable.from_arrays(
            rng.integers(0, 2**32, n),
            rng.integers(0, 2**32, n),
            rng.integers(0, 2**16, n),
            rng.integers(0, 2**16, n),
            rng.integers(0, 256, n),
            rng.integers(1, 1000, n),
            rng.integers(40, 10**6, n),
            start=rng.uniform(0, 900, n),
            label=rng.integers(-1, 5, n),
        )
        path = tmp_path / "big.npz"
        write_npz(table, path)
        assert read_npz(path) == table


GOOD_ROW = "1,2,3,4,6,1,40,0.5,-1"
HEADER = ",".join(ALL_COLUMNS)


def parse(lines, **kwargs):
    chunks = list(iter_csv_handle(lines, **kwargs))
    return FlowTable.concat(chunks), [len(chunk) for chunk in chunks]


@pytest.mark.filterwarnings("error")
class TestBatchDecoder:
    """The numpy batch decode behind every CSV entry point: what it
    accepts, what it refuses, and which physical line it blames.  Runs
    with warnings as errors so ``loadtxt``'s "input contained no data"
    can never leak."""

    def test_handle_may_be_a_list_or_a_generator(self):
        lines = [HEADER + "\n", GOOD_ROW + "\n", GOOD_ROW + "\n"]
        from_list, _ = parse(lines)
        from_generator, _ = parse(line for line in lines)
        assert len(from_list) == 2
        assert from_list == from_generator

    def test_accepted_number_syntax(self):
        table, _ = parse([
            HEADER + "\r\n",
            " 1 , 2,3 ,4,6,1,40, 0.5 , -1 \r\n",
            "\r\n",
            '"+7",2,3,4,6,1,40,"1e3",+5\r\n',
            "\n",
            "4294967295,2,3,4,6,18446744073709551615,40,1E-05,"
            "-9223372036854775808",
        ])
        assert table.src_ip.tolist() == [1, 7, 2**32 - 1]
        assert table.packets.tolist() == [1, 1, 2**64 - 1]
        assert table.start.tolist() == [0.5, 1000.0, 1e-05]
        assert table.label.tolist() == [-1, 5, -(2**63)]

    def test_batches_hold_chunk_rows_lines(self):
        """Empty lines take a slot in their batch but carry no flow;
        a batch of only empty lines yields nothing."""
        lines = [HEADER, GOOD_ROW, "", GOOD_ROW, GOOD_ROW, "", "", "\n"]
        table, sizes = parse(lines, chunk_rows=2)
        assert sizes == [1, 2]
        assert len(table) == 3

    def test_header_only_and_all_blank_tail(self):
        assert list(iter_csv_handle([HEADER + "\n"])) == []
        assert list(iter_csv_handle([HEADER + "\n", "\n", "\r\n", ""])) == []

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 65536])
    @pytest.mark.parametrize("lines,message", [
        # Blank lines before the bad row count as physical lines.
        ([GOOD_ROW, "", "", "1,2,3", GOOD_ROW],
         r"^t:5: expected 9 fields, got 3$"),
        # A bad row in a later batch.
        ([GOOD_ROW] * 6 + ["x" + GOOD_ROW],
         r"^t:8: bad value$"),
        # A whitespace-only line is a ragged row, not an empty line.
        ([GOOD_ROW, "   ", GOOD_ROW],
         r"^t:3: expected 9 fields, got 1$"),
        ([GOOD_ROW, GOOD_ROW + ",9"],
         r"^t:3: expected 9 fields, got 10$"),
        # A quoted cell is one cell even when it holds a comma.
        ([GOOD_ROW, '"1,5",2,3,4,6,1,40,0.5,-1'],
         r"^t:3: bad value$"),
        ([GOOD_ROW, "", "1,2,3,4,6,1,40,-inf,-1"],
         r"^t:4: non-finite start timestamp '-inf'$"),
        ([GOOD_ROW, "1,2,3,4,6,1,40,1e400,-1"],
         r"^t:3: non-finite start timestamp '1e400'$"),
        # A quoted cell may not span lines: the line that leaves it
        # open is refused wherever the batch boundary falls.
        ([GOOD_ROW, GOOD_ROW, '1,2,3,4,6,1,40,0.5,"-1', '"', GOOD_ROW],
         r"^t:4: bad value: unterminated quoted cell$"),
        ([GOOD_ROW, '1,2,3,4,6,1,40,0.5,"-1'],
         r"^t:3: bad value: unterminated quoted cell$"),
        # The first offending cell words the error, as it always did.
        ([GOOD_ROW, "x,2,3,4,6,1,40,nan,-1"], r"^t:3: bad value$"),
        ([GOOD_ROW, "1,2,3,4,6,1,40,nan,x"], r"^t:3: non-finite"),
        # Only the first bad line is reported.
        ([GOOD_ROW, "1,2,3,4,6,1,40,0.5,", "1,2"], r"^t:3: bad value$"),
    ])
    def test_refusal_names_the_physical_line(
        self, lines, message, chunk_rows
    ):
        for line_end in ("\n", "\r\n"):
            text = [line + line_end for line in [HEADER, *lines]]
            metrics = MetricsRegistry()
            with pytest.raises(TraceFormatError, match=message):
                list(iter_csv_handle(
                    text, chunk_rows=chunk_rows, name="t", metrics=metrics
                ))
            errors = metrics.counter("repro_io_parse_errors_total", "")
            assert errors.value == 1

    @pytest.mark.parametrize("column,cell,dtype", [
        ("src_port", "-3", "uint32"),
        ("src_ip", "4294967297", "uint32"),
        ("packets", "18446744073709551616", "uint64"),
        ("label", "9223372036854775808", "int64"),
    ])
    def test_out_of_range_cell_refused(self, column, cell, dtype):
        cells = GOOD_ROW.split(",")
        cells[ALL_COLUMNS.index(column)] = cell
        lines = [HEADER, GOOD_ROW, ",".join(cells)]
        with pytest.raises(
            TraceFormatError,
            match=rf"^t:3: bad value: {column}={cell} does not fit {dtype}$",
        ):
            list(iter_csv_handle(lines, name="t"))

    @pytest.mark.parametrize("cell", ["1_000", "١", "-0", "3.0", "0x10", ""])
    def test_integer_cells_are_ascii_decimal(self, cell):
        lines = [HEADER, GOOD_ROW, cell + GOOD_ROW[1:]]
        with pytest.raises(TraceFormatError, match=r"^t:3: bad value$"):
            list(iter_csv_handle(lines, name="t"))

    def test_rows_before_the_bad_batch_are_yielded_and_counted(self):
        metrics = MetricsRegistry()
        lines = [HEADER] + [GOOD_ROW] * 5 + ["1,2,3"]
        chunks = iter_csv_handle(lines, chunk_rows=2, metrics=metrics)
        assert [len(next(chunks)), len(next(chunks))] == [2, 2]
        with pytest.raises(TraceFormatError, match=r":7: expected 9"):
            next(chunks)
        rows = metrics.counter("repro_io_rows_parsed_total", "")
        assert rows.value == 4


GOOD_OBJECT = dict(zip(ALL_COLUMNS, [1, 2, 3, 4, 6, 1, 40, 0.5, -1]))


def jsonl(*lines):
    return [
        line if isinstance(line, str) else json.dumps(line) + "\n"
        for line in lines
    ]


@pytest.mark.filterwarnings("error")
class TestJsonlDecoder:
    """JSONL objects decode as the CSV data line of their cells, so
    only what has no CSV spelling is the JSON layer's to refuse."""

    def test_omitted_label_is_the_baseline(self):
        unlabelled = {k: v for k, v in GOOD_OBJECT.items() if k != "label"}
        (table,) = iter_jsonl_handle(jsonl(unlabelled, GOOD_OBJECT))
        assert table.label.tolist() == [-1, -1]
        assert table == FlowTable.concat(
            list(iter_csv_handle([HEADER, GOOD_ROW, GOOD_ROW]))
        )

    @pytest.mark.parametrize("key,value,message", [
        # Refused by the CSV cell rules, worded as for a CSV row.
        ("packets", 1.9, r"bad value$"),
        ("packets", 1.0, r"bad value$"),
        ("packets", 2**64, r"bad value: packets=18446744073709551616 does"),
        ("src_port", -3, r"bad value: src_port=-3 does not fit uint32$"),
        ("start", float("nan"), r"non-finite start timestamp 'NaN'$"),
        ("start", float("-inf"), r"non-finite start timestamp '-Infinity'$"),
        # Cells with no CSV spelling, and keys no column has.
        ("packets", True, r"bad value: packets is not a JSON number$"),
        ("packets", "7", r"bad value: packets is not a JSON number$"),
        ("start", "1e3", r"bad value: start is not a JSON number$"),
        ("bytes", None, r"bad value: bytes is not a JSON number$"),
        ("bytes", [40], r"bad value: bytes is not a JSON number$"),
        ("flags", 2, r"flow object has unknown keys \['flags'\]$"),
    ])
    def test_refusal_names_the_physical_line(self, key, value, message):
        metrics = MetricsRegistry()
        lines = jsonl(GOOD_OBJECT, "\n", "  \r\n", {**GOOD_OBJECT, key: value})
        with pytest.raises(TraceFormatError, match=rf"^t:4: {message}"):
            list(iter_jsonl_handle(lines, name="t", metrics=metrics))
        assert metrics.counter("repro_io_parse_errors_total", "").value == 1

    @pytest.mark.parametrize("line,message", [
        ("{not json}", r"invalid JSON: "),
        ("[1, 2]", r"each line must be a flow object$"),
        ("7", r"each line must be a flow object$"),
        ('{"src_ip": 1}', r"flow object missing keys \['dst_ip', "),
    ])
    def test_json_layer_refusals(self, line, message):
        with pytest.raises(TraceFormatError, match=rf"^t:2: {message}"):
            list(iter_jsonl_handle(jsonl(GOOD_OBJECT, line), name="t"))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 65536])
    def test_the_first_refused_line_is_named(self, chunk_rows):
        """A JSON-level refusal waits for the lines before it, so an
        earlier cell refusal in the same batch is the one reported."""
        lines = jsonl(
            GOOD_OBJECT, {**GOOD_OBJECT, "packets": 1.5},
            {**GOOD_OBJECT, "packets": True},
        )
        with pytest.raises(TraceFormatError, match=r"^t:2: bad value$"):
            list(iter_jsonl_handle(lines, chunk_rows=chunk_rows, name="t"))

    def test_number_text_is_kept(self):
        """A cell is the JSON number's own text: exponent and long
        decimal starts decode as the same CSV cells would."""
        record = {**GOOD_OBJECT, "start": 0}
        text = json.dumps(record).replace('"start": 0', '"start": 1E3')
        long_decimal = text.replace("1E3", "0.1000000000000000055")
        (table,) = iter_jsonl_handle([text, long_decimal])
        assert table.start.tolist() == [1000.0, 0.1]


class TestWriteCsvBytes:
    def test_matches_csv_writer(self, tmp_path):
        """``write_csv`` renders whole columns at once; the bytes must
        be what one ``csv.writer.writerow`` per flow produces."""
        import csv

        n = 10_000  # spans several write blocks
        rng = np.random.default_rng(3)
        start = rng.uniform(0, 1e6, n)
        start[:6] = [1e16, 1e-05, 0.0, 5e-324, 1e300, 123456789.125]
        packets = rng.integers(1, 2**40, n, dtype=np.uint64)
        packets[0] = 2**64 - 1
        label = rng.integers(-5, 5, n)
        label[0] = -(2**63)
        table = FlowTable.from_arrays(
            rng.integers(0, 2**32, n),
            rng.integers(0, 2**32, n),
            rng.integers(0, 2**16, n),
            rng.integers(0, 2**16, n),
            rng.integers(0, 256, n),
            packets,
            rng.integers(40, 10**6, n),
            start=start,
            label=label,
        )
        golden = tmp_path / "golden.csv"
        with open(golden, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(ALL_COLUMNS)
            for record in table:
                writer.writerow(
                    [getattr(record, name) for name in ALL_COLUMNS]
                )
        path = tmp_path / "trace.csv"
        write_csv(table, path)
        assert path.read_bytes() == golden.read_bytes()
        assert read_csv(path) == table

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(FlowTable.empty(), path)
        assert path.read_bytes() == (HEADER + "\r\n").encode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_refused_before_the_file(self, tmp_path, bad):
        """``read_csv`` refuses a non-finite start, so ``write_csv``
        does not write one: the first such row is named and no file is
        left behind."""
        table = FlowTable.from_arrays(
            [1] * 4, [2] * 4, [3] * 4, [4] * 4, [6] * 4, [1] * 4, [40] * 4,
            start=[0.5, 1.5, bad, bad],
        )
        path = tmp_path / "t.csv"
        with pytest.raises(
            TraceFormatError, match=r"t\.csv: row 2: non-finite start"
        ):
            write_csv(table, path)
        assert not path.exists()


def _csv_writer_bytes(table):
    """``TestWriteCsvBytes``'s golden: what ``csv.writer`` makes of the
    header and each flow's Python values."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(ALL_COLUMNS)
    writer.writerows(zip(*(table.column(n).tolist() for n in ALL_COLUMNS)))
    return out.getvalue().encode()


#: Starts whose shortest round-trip ``repr`` has an awkward shape.
EDGE_STARTS = [5e-324, 1e16, 1e-05, -0.0, 0.0, 1e300, -2.5e-308, 0.1, 1e22]


@st.composite
def csv_tables(draw):
    """Tables of 0 to 4,097 rows (block edges included) whose integer
    columns are all zero, all at their dtype's maximum, spread over
    every digit count (0, the minimum and the maximum planted) or on
    the 9/10-digit edge, and whose starts are finite."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4095, 4096, 4097]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in ALL_COLUMNS:
        dtype = ROW_DTYPE[name]
        if name == "start":
            shape = draw(st.sampled_from(["edges", "bits", "uniform"]))
            if shape == "uniform":
                values = rng.uniform(0, 1.3e6, n)
            else:
                values = rng.choice(EDGE_STARTS, n)
            if shape == "bits":
                bits = rng.integers(0, 2**64, n, dtype=np.uint64)
                finite = np.isfinite(bits.view(np.float64))
                values[finite] = bits.view(np.float64)[finite]
            columns[name] = values
            continue
        info = np.iinfo(dtype)
        shape = draw(st.sampled_from(["zero", "max", "spread", "nine_ten"]))
        if shape == "zero":
            values = np.zeros(n, dtype)
        elif shape == "max":
            values = np.full(n, info.max, dtype)
        elif shape == "spread":
            values = rng.integers(
                info.min, info.max, n, dtype=dtype, endpoint=True
            ) >> rng.integers(0, info.bits, n).astype(dtype)
            values[:3] = [info.min, 0, info.max][:n]
        else:
            values = rng.choice(
                np.array([9, 99_999_999, 999_999_999, 10**9], dtype), n
            )
            if info.min < 0:
                values *= rng.choice(np.array([-1, 1], dtype), n)
        columns[name] = values
    return FlowTable(columns)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(table=csv_tables())
def test_write_csv_is_the_csv_writer_golden(table, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(table, path)
    assert path.read_bytes() == _csv_writer_bytes(table)
    assert read_csv(path) == table
