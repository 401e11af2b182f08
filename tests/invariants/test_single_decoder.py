"""One flow decoder: flow text becomes a ``FlowTable`` only in
``repro/flows/``.

The service once carried its own JSONL decoder beside
``flows/io.py iter_csv_handle``, with its own idea of what a fractional
packet count, a ``true`` or an unknown key means.  These guards keep
the record dtype, the range check and the tokenizer call where the one
decoder lives, so a second one cannot grow back in ``service/``.
"""

import ast

from tests.invariants.source import sources, terminal_name, walk

#: Names only the decoder's package may touch.
DECODER_NAMES = ("ROW_DTYPE", "fit_error")


def _names(nodes) -> set[str]:
    """Every name a module reads, attribute or imports."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name | ast.Attribute):
            names.add(terminal_name(node))
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_only_flows_touches_the_record_dtype_and_range_check():
    users = {
        name: sorted(set(DECODER_NAMES) & _names(walk(text)))
        for name, text in sources().items()
    }
    outside = {
        name: found
        for name, found in users.items()
        if found and not name.startswith("flows/")
    }
    assert outside == {}
    assert users["flows/io.py"] == sorted(DECODER_NAMES)


def test_only_flows_io_calls_the_tokenizer():
    callers = sorted(
        name
        for name, text in sources().items()
        for node in walk(text)
        if isinstance(node, ast.Call) and terminal_name(node.func) == "loadtxt"
    )
    assert callers == ["flows/io.py"]
