"""``IntervalAssembler.check`` refuses exactly what ``push`` refuses.

A batch is all or nothing only if it can be checked before its first
chunk is pushed: ``check`` refuses a chunk as ``push`` would from a
given cursor and returns the cursor that push would leave, so chaining
it over a batch refuses the batch's first bad chunk against the state
the chunks before it would leave.  The property runs ``check`` and
``push`` side by side on random small streams - late rows, pre-origin
rows, unindexable starts, jumps past a shrunken gap bound - with and
without a lateness allowance and backpressure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flows.stream as stream
from repro.errors import ConfigError, FlowError
from repro.flows.table import FlowTable
from repro.streaming import IntervalAssembler

INTERVAL = 10.0


def chunk(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        [1] * n, [2] * n, [3] * n, [4] * n, [6] * n, [1] * n, [40] * n,
        start=starts,
    )


def outcome(call):
    try:
        return "ok", call()
    except (ConfigError, FlowError) as exc:
        return type(exc), str(exc)


START = st.one_of(
    st.sampled_from([-3.0, 0.0, 9.99, 10.0, 47.0, 60.0, 95.0, 1e300]),
    st.floats(-20.0, 200.0),
)


@settings(max_examples=300, deadline=None)
@given(
    chunks=st.lists(st.lists(START, max_size=4), max_size=8),
    delay=st.sampled_from([0.0, 15.0]),
    pending=st.sampled_from([None, 2]),
)
def test_check_refuses_what_push_refuses(chunks, delay, pending):
    def assembler():
        return IntervalAssembler(
            INTERVAL, max_delay_seconds=delay, max_pending_intervals=pending
        )

    pushed, checker = assembler(), assembler()
    fresh = checker.cursor
    cursor = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stream, "MAX_GAP_INTERVALS", 5)
        for starts in chunks:
            table = chunk(starts)
            checked = outcome(lambda: checker.check(table, cursor))
            result = outcome(lambda: pushed.push(table))
            if checked[0] == "ok":
                assert result[0] == "ok"
                cursor = checked[1]
                assert cursor == pushed.cursor
            else:
                # A refused push leaves the assembler as it was, so
                # the chain goes on from the last accepted cursor.
                assert result == checked
    assert checker.cursor == fresh
    assert checker.flows_seen == 0


def test_empty_chunk_keeps_the_cursor():
    assembler = IntervalAssembler(INTERVAL)
    assembler.push(chunk([5.0, 25.0]))
    assert assembler.check(FlowTable.empty()) == assembler.cursor
