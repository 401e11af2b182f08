"""The harness's own in-memory spans (name, start, end, parent).

Spans inside the program are a later issue; these are recorded from
outside, around each call the replay makes into a layer's public
functions.  They stay in memory for the whole run and are written out
once when it ends (:meth:`SpanLog.write`), so recording costs two
clock reads and a list append per span.
"""

import json
import time


class _Span:
    __slots__ = ("_log", "_row")

    def __init__(self, log, row):
        self._log = log
        self._row = row

    def __enter__(self):
        log = self._log
        self._row[3] = log._stack[-1] if log._stack else -1
        log._stack.append(len(log.rows))
        log.rows.append(self._row)
        self._row[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._row[2] = time.perf_counter()
        self._log._stack.pop()


class SpanLog:
    """Append-only span table with parent links.

    ``rows[i]`` is ``[name, start, end, parent_index]`` (parent -1 for
    a root).  A layer's busy time is the sum of its spans' durations;
    "top-level" spans are the direct children of a named root, which
    is how the spine overhead avoids counting an attribution split
    (``sketch.update`` + ``detection.score``) on top of the whole call
    it splits (``detection.observe``).
    """

    def __init__(self):
        self.rows = []
        self._stack = []

    def span(self, name):
        return _Span(self, [name, 0.0, 0.0, -1])

    def timed_iter(self, name, iterable):
        """Yield from ``iterable`` with every ``next()`` inside a span:
        the time a lazy producer (a CSV parser, an interval windower)
        spends between two items, not the consumer's time."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                item = next(iterator, _DONE)
            if item is _DONE:
                return
            yield item

    def busy(self, name):
        """Seconds summed over every span called ``name``."""
        return sum(row[2] - row[1] for row in self.rows if row[0] == name)

    def count(self, name):
        return sum(1 for row in self.rows if row[0] == name)

    def children_busy(self, root_name, exclude="attribution"):
        """Seconds summed over the direct children of the (single)
        root span called ``root_name``, leaving out the ``exclude``
        spans: those re-do work a sibling already covers."""
        roots = [i for i, row in enumerate(self.rows) if row[0] == root_name]
        if len(roots) != 1:
            raise ValueError(
                f"expected exactly one {root_name!r} span, got {len(roots)}"
            )
        root = roots[0]
        return sum(
            row[2] - row[1]
            for row in self.rows
            if row[3] == root and row[0] != exclude
        )

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                {"columns": ["name", "start", "end", "parent"],
                 "spans": self.rows},
                handle,
            )
            handle.write("\n")


_DONE = object()
