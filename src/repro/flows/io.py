"""Serialization of flow tables.

Two formats are supported:

* **CSV** — human-readable, one flow per line, header row.  Interoperable
  with ``nfdump -o csv``-style exports after column mapping.
* **NPZ** — compressed numpy archive, loss-less and fast; the native
  format for checkpointing generated traces.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import zipfile
import zlib
from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

from repro.errors import TraceFormatError
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, iter_intervals
from repro.flows.table import ALL_COLUMNS, ROW_DTYPE, FlowTable, fit_error
from repro.obs.instruments import catalogued
from repro.obs.metrics import NULL_REGISTRY


def _io_counters(metrics):
    """(rows parsed, parse errors) counters from ``metrics`` (or no-ops)."""
    registry = metrics if metrics is not None else NULL_REGISTRY
    return (
        catalogued(registry, "repro_io_rows_parsed_total"),
        catalogued(registry, "repro_io_parse_errors_total"),
    )

_CSV_HEADER = list(ALL_COLUMNS)

#: Rows rendered per ``write`` call by :func:`write_csv`.  A block's
#: cells live as Python objects until it is written (~0.5 KiB a row),
#: so the block is kept small: larger ones are no faster and 65,536
#: rows showed as +19 MiB peak RSS on the ledger's CSV workloads.
_WRITE_BLOCK_ROWS = 4096


def _integer_cells(values: np.ndarray) -> np.ndarray:
    """An integer column's decimal text as a ``(rows, width)`` uint8
    matrix: digits right-aligned, NUL before them, and a negative
    value's ``-`` in the first column (the NULs between go too)."""
    negative = values < 0
    sign = int(negative.any())
    if sign:  # abs(-2**63) wraps to itself: exact as a uint64
        values = np.abs(values).view(np.uint64)
    cells = np.zeros((len(values), sign + len(str(int(values.max())))), np.uint8)
    q, ten = values, values.dtype.type(10)
    for col in range(cells.shape[1] - 1, sign - 1, -1):
        live = q > 0
        q, digit = np.divmod(q, ten)
        cells[:, col] = np.where(live, digit + 48, 0)
    cells[:, -1] |= 48  # a zero's one digit
    cells[negative, 0] = ord("-")
    return cells


def write_csv(table: FlowTable, path: str | os.PathLike[str]) -> None:
    """Write a flow table to ``path`` as CSV with a header row.

    The bytes are :mod:`csv`'s default dialect (CRLF row terminator,
    nothing needs quoting); ``start`` is written with ``repr`` so it
    reads back to the same float.  A block of rows is one uint8
    matrix: integer cells rendered with ``np.divmod``, NUL-padded,
    ``start`` cells the one per-value ``repr``; the NULs are dropped on
    the way out.  A non-finite ``start`` (which :func:`read_csv`
    refuses) raises :class:`TraceFormatError` naming its row before
    ``path`` is created.
    """
    bad = np.flatnonzero(~np.isfinite(table.start))
    if len(bad):
        raise TraceFormatError(
            f"{path}: row {bad[0]}: non-finite start timestamp "
            f"{float(table.start[bad[0]])!r}"
        )
    columns = [table.column(name) for name in ALL_COLUMNS]
    with open(path, "wb") as handle:
        handle.write((",".join(_CSV_HEADER) + "\r\n").encode())
        for lo in range(0, len(table), _WRITE_BLOCK_ROWS):
            parts: list[np.ndarray] = []
            for name, column in zip(ALL_COLUMNS, columns):
                block = column[lo:lo + _WRITE_BLOCK_ROWS]
                if name == "start":
                    text = np.array(list(map(repr, block.tolist())), "S")
                    cells = text.view(np.uint8).reshape(len(block), -1)
                else:
                    cells = _integer_cells(block)
                parts += [cells, np.full((len(block), 1), ord(","), np.uint8)]
            parts[-1] = np.tile(np.frombuffer(b"\r\n", np.uint8), (len(block), 1))
            matrix = np.hstack(parts)
            # No cell holds a NUL byte: dropping the padding leaves the text.
            handle.write(matrix[matrix != 0].tobytes())


#: Rows per chunk yielded by :func:`iter_csv` (bounds parser memory).
DEFAULT_CHUNK_ROWS = 65_536


def _decode_rows(batch: list[str]) -> np.ndarray:
    """Decode a batch of CSV data lines into :data:`ROW_DTYPE` records.

    Raises ``ValueError`` when a line is ragged, a cell does not parse
    as (or does not fit) its column's type, a start timestamp is
    non-finite, or a quoted cell is left open at the end of its line.
    Empty lines carry no record.
    """
    if not any(line.strip("\r\n") for line in batch):
        # loadtxt warns on input without data.
        return np.empty(0, dtype=ROW_DTYPE)
    # loadtxt would carry an open quote into the next line, so whether
    # the row decodes would depend on where the batch happens to end.
    # Every line left open has an odd count of quotes or a cell that
    # is not a number anyway; refusing the former makes each line
    # decode the same alone as in any batch.
    if '"' in "".join(batch) and any(
        line.count('"') % 2 for line in batch
    ):
        raise ValueError("unterminated quoted cell")
    rows = np.loadtxt(
        batch, dtype=ROW_DTYPE, delimiter=",", comments=None,
        quotechar='"', ndmin=1,
    )
    # Catch nan/inf here, where the line number can still be found -
    # downstream interval binning would turn them into a baffling
    # negative-interval error.
    if not np.isfinite(rows["start"]).all():
        raise ValueError("non-finite start timestamp")
    return rows


def _refusal(
    batch: list[str], first_line_no: int, name: str
) -> TraceFormatError:
    """The error for the first line of ``batch`` :func:`_decode_rows`
    refuses; ``first_line_no`` is the physical line of ``batch[0]``.

    Lines decode independently (a quoted cell may not span lines),
    so the line is found by bisection with the decoder itself (the
    error path costs at most one more decode of the batch); the
    per-cell walk below only words the refusal.
    """
    # Invariant: batch[:lo] decodes, batch[lo:hi + 1] does not.
    lo, hi = 0, len(batch) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _decode_rows(batch[lo:mid + 1])
        except ValueError:
            hi = mid
        else:
            lo = mid + 1
    where = f"{name}:{first_line_no + lo}"
    if batch[lo].count('"') % 2:
        return TraceFormatError(
            f"{where}: bad value: unterminated quoted cell"
        )
    row = next(csv.reader(batch[lo:lo + 1]))
    if len(row) != len(ALL_COLUMNS):
        return TraceFormatError(
            f"{where}: expected {len(ALL_COLUMNS)} fields, got {len(row)}"
        )
    for column, cell in zip(ALL_COLUMNS, row):
        try:
            value = float(cell) if column == "start" else int(cell)
        except ValueError:
            break
        if column == "start":
            if not math.isfinite(value):
                return TraceFormatError(
                    f"{where}: non-finite start timestamp {cell!r}"
                )
            continue
        if why := fit_error(column, value):
            return TraceFormatError(f"{where}: bad value: {why}")
    return TraceFormatError(f"{where}: bad value")


def iter_csv_handle(
    handle: Iterable[str],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    name: str = "<stream>",
    metrics=None,
) -> Iterator[FlowTable]:
    """Stream CSV flow rows from an open text handle (file, pipe, stdin).

    The workhorse behind :func:`iter_csv`; use it directly when the
    trace arrives on something that has no path, e.g.
    ``repro-extract extract -`` reading from a shell pipeline (any
    iterable of lines will do).  ``name`` labels error messages.
    ``chunk_rows`` lines at a time are decoded by numpy's text reader
    straight into columns; each yielded table holds the flows of one
    such batch (empty lines carry none, and a batch of only empty
    lines yields nothing).

    A malformed header, ragged row, non-numeric or out-of-range cell,
    or non-finite start raises :class:`TraceFormatError` naming the
    offending line.  Cells are ASCII decimal integers (``start``: a
    decimal or exponent float); surrounding whitespace, a leading
    ``+``, double-quoted cells, CRLF line ends and empty lines are
    accepted; digit-group underscores (``1_000``), non-ASCII digits,
    ``-0`` in an unsigned column and a quoted cell that spans lines
    are not.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) counts parsed rows
    and rejected rows.
    """
    if chunk_rows < 1:
        raise TraceFormatError(f"chunk_rows must be >= 1: {chunk_rows}")
    m_rows, m_errors = _io_counters(metrics)
    lines = iter(handle)
    try:
        header = next(csv.reader([next(lines)]))
    except StopIteration as exc:
        raise TraceFormatError(f"{name}: empty trace file") from exc
    if header != _CSV_HEADER:
        raise TraceFormatError(
            f"{name}: unexpected header {header!r}; expected {_CSV_HEADER!r}"
        )
    line_no = 2
    while batch := list(islice(lines, chunk_rows)):
        try:
            rows = _decode_rows(batch)
        except ValueError as exc:
            m_errors.inc()
            raise _refusal(batch, line_no, name) from exc
        line_no += len(batch)
        if len(rows):
            m_rows.inc(len(rows))
            yield FlowTable.from_rows(rows)


def iter_csv(
    path: str | os.PathLike[str],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    metrics=None,
) -> Iterator[FlowTable]:
    """Stream a CSV trace file as :class:`FlowTable` chunks.

    Yields tables of at most ``chunk_rows`` flows in file order, so very
    large traces can be windowed, partitioned, or re-serialized without
    materializing every row at once.  See :func:`iter_csv_handle` for
    sources without a path.
    """
    with open(path, newline="") as handle:
        yield from iter_csv_handle(
            handle, chunk_rows, name=str(path), metrics=metrics
        )


def read_csv(path: str | os.PathLike[str]) -> FlowTable:
    """Read a flow table previously written by :func:`write_csv`.

    Raises :class:`TraceFormatError` on a malformed header or ragged rows.
    """
    chunks = list(iter_csv(path))
    if not chunks:
        return FlowTable.empty()
    if len(chunks) == 1:
        return chunks[0]
    return FlowTable.concat(chunks)


def write_npz(table: FlowTable, path: str | os.PathLike[str]) -> None:
    """Write a flow table to a compressed ``.npz`` archive at ``path``
    (opened here, so numpy appends no ``.npz`` to another spelling)."""
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle, **{name: table.column(name) for name in ALL_COLUMNS}
        )


def read_npz(path: str | os.PathLike[str]) -> FlowTable:
    """Read a flow table from a ``.npz`` archive written by
    :func:`write_npz`.

    A file that is not such an archive (CSV text, a truncated zip, a
    bare ``.npy``) or lacks a column raises :class:`TraceFormatError`
    naming ``path``.
    """
    # Opened here: numpy leaks its own handle when the zip is bad.
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a bare .npy array")
            with archive:
                missing = [n for n in ALL_COLUMNS if n not in archive]
                if missing:
                    raise TraceFormatError(
                        f"{path}: archive missing columns {missing}"
                    )
                columns = {name: archive[name] for name in ALL_COLUMNS}
        except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise TraceFormatError(
                f"{path}: not a readable npz archive"
            ) from exc
    return FlowTable(columns)


#: Trace readers and writers by file extension:
#: ``reader(path) -> FlowTable``, ``writer(table, path)``.
readers = {".csv": read_csv, ".npz": read_npz}
writers = {".csv": write_csv, ".npz": write_npz}


def trace_format(path: str | os.PathLike[str]) -> str:
    """The :data:`readers` / :data:`writers` key of ``path``: its
    lower-cased extension.

    The one extension rule shared by the CLI and the API facade; an
    unknown extension raises :class:`TraceFormatError` listing the
    known ones.
    """
    extension = os.path.splitext(os.fspath(path))[1].lower()
    if extension not in readers:
        raise TraceFormatError(
            f"{path}: unknown trace format (expected one of: "
            f"{', '.join(sorted(readers))})"
        )
    return extension


def read_trace(path: str | os.PathLike[str]) -> FlowTable:
    """Read a trace by file extension via :data:`readers`."""
    return readers[trace_format(path)](path)



def flow_chunks(
    source: str | os.PathLike[str],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    metrics=None,
) -> Iterator[FlowTable]:
    """The flow chunks of a run's SOURCE: a ``.csv`` path or ``'-'``
    (CSV on stdin) parsed ``chunk_rows`` lines at a time, or a ``.npz``
    read whole and fed interval by interval on the ``interval_seconds``
    / ``origin`` grid, so its row order never matters.  ``metrics``
    threads a registry through to the CSV parser's row counters.  The
    extension is read by :func:`trace_format`, so an unknown one raises
    :class:`TraceFormatError` before anything is read."""
    if os.fspath(source) == "-":
        return iter_csv_handle(
            sys.stdin, chunk_rows=chunk_rows, name="<stdin>", metrics=metrics
        )
    if trace_format(source) == ".csv":
        return iter_csv(source, chunk_rows=chunk_rows, metrics=metrics)
    return (
        view.flows
        for view in iter_intervals(
            read_trace(source),
            interval_seconds,
            origin=origin,
            include_empty=False,
        )
    )
