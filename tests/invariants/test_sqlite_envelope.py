"""sqlite calls stay inside the ``IncidentError`` envelope, so no raw
``sqlite3.Error`` breaks the CLI's ``error: ...`` exit-2 contract.  In
a module that names ``sqlite3``, every database call sits under
``with self._wrap_db_errors():`` or in the body of a ``try`` whose
handler raises ``IncidentError`` - in the same function, so a wrapped
caller does not shield its helper.
"""

import ast

import pytest

from tests.invariants.source import ancestors, sources, terminal_name, walk

DB_METHODS = {"execute", "executemany", "executescript", "commit", "rollback"}


def _raises_incident_error(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and terminal_name(getattr(node.exc, "func", node.exc)) == "IncidentError"
        for node in ast.walk(handler)
    )


def _shielded(source: str, call: ast.Call) -> bool:
    for parent, child in ancestors(source, call):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        if isinstance(parent, ast.With) and any(
            terminal_name(getattr(item.context_expr, "func", None)) == "_wrap_db_errors"
            for item in parent.items
        ):
            return True
        if (
            isinstance(parent, ast.Try)
            and (child in parent.body or child in parent.orelse)
            and any(map(_raises_incident_error, parent.handlers))
        ):
            return True
    return False


def escaping_db_calls(source: str) -> list[str]:
    """``line: .method()`` for each database call outside the envelope."""
    if "sqlite3" not in source:
        return []
    return [
        f"{node.lineno}: .{node.func.attr}()"
        for node in walk(source)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr in DB_METHODS
            or f"{terminal_name(node.func.value)}.{node.func.attr}" == "sqlite3.connect"
        )
        and not _shielded(source, node)
    ]


def test_database_calls_stay_in_the_envelope():
    escaping = {path: escaping_db_calls(text) for path, text in sources().items()}
    assert {path: calls for path, calls in escaping.items() if calls} == {}


GUARDED = """\
def f(self, c):
    with self._wrap_db_errors():
        c.execute(q)
    try:
        c.commit()
    except ValueError:
        raise IncidentError()
"""


@pytest.mark.parametrize(
    "body, escaping",
    [
        (GUARDED, []),
        ("sqlite3.connect(path)", ["2: .connect()"]),
        ("def f(self):\n    self._conn.execute(q)", ["3: .execute()"]),
        # A nested function and an except clause are outside the envelope.
        (GUARDED.replace("c.ex", "def g():\n            c.ex"), ["5: .execute()"]),
        (GUARDED.replace("raise", "c.rollback()\n        raise"), ["8: .rollback()"]),
        (GUARDED.replace("IncidentError", "KeyError"), ["6: .commit()"]),
        ("with self._wrap_db_errors():\n    f(lambda: c.commit())", ["3: .commit()"]),
        ("c.executemany(q, rows)", ["2: .executemany()"]),
    ],
)
def test_the_envelope_checker(body, escaping):
    assert escaping_db_calls("import sqlite3\n" + body) == escaping
