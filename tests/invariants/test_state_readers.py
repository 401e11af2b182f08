"""One way to read state: every ``from_state`` / ``from_dict`` goes
through ``repro.state.read_fields``.

A decoder that subscripts its document (``int(state["next"])``) has
its own idea of what a missing key, a ``true`` or a ``NaN`` means, and
fifteen of them had fifteen ideas (``tests/property/test_state_fuzz.py``
counts the tracebacks and silent coercions that cost).  These guards
keep the reading - and the two encodings the documents share - in
``repro/state.py``.
"""

import ast

from tests.invariants.source import sources, walk

#: ``core/config.py`` reads run *configs* (TOML tables checked against
#: dataclass fields by ``_check_table``), not state documents.
EXEMPT = ("core/config.py",)


def _modules():
    for name, text in sources().items():
        if name not in EXEMPT:
            yield name, walk(text)


def _reads_outside_read_fields(function: ast.FunctionDef) -> list[int]:
    """Lines where ``function`` subscripts or ``.get``s its document
    argument anywhere but inside a ``read_fields(...)`` call."""
    names = [a.arg for a in function.args.args if a.arg not in ("self", "cls")]
    if not names:
        return []
    document = names[0]

    def is_document(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == document

    lines = []

    def visit(node: ast.AST) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "read_fields"
        ):
            return
        if isinstance(node, ast.Subscript) and is_document(node.value):
            lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and is_document(node.func.value)
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(function)
    return lines


def test_decoders_read_their_document_through_read_fields():
    decoders, offenders = 0, {}
    for name, nodes in _modules():
        for node in nodes:
            if isinstance(node, ast.FunctionDef) and node.name in (
                "from_state",
                "from_dict",
            ):
                decoders += 1
                lines = _reads_outside_read_fields(node)
                if lines:
                    offenders[f"{name}:{node.name}"] = lines
    assert decoders == 13  # eight from_state, five from_dict
    assert offenders == {}


def test_the_shared_encodings_are_defined_once():
    owners = {
        function: [
            name
            for name, nodes in _modules()
            for node in nodes
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        for function in ("pack_array", "unpack_array", "canonical_json")
    }
    assert owners == dict.fromkeys(owners, ["state.py"])
    # ... and the two writers of canonical documents use the one
    # spelling instead of their own json.dumps(sort_keys=...) call.
    for module, function in (
        ("service/checkpoint.py", "write_checkpoint"),
        ("federation/digest.py", "to_json"),
    ):
        (body,) = [
            node
            for node in walk(sources()[module])
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        called = {
            node.func.id
            for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "canonical_json" in called, f"{module}:{function}"
