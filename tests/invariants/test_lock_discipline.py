"""Shared state in a lock-carrying class mutates under its lock: in a
class that assigns ``self._lock`` (the metrics registry, the tracer),
every write to an underscore ``self`` attribute outside a constructor
sits inside ``with self._lock:`` in the same method.  Reads are exempt.
"""

import ast

from tests.invariants.source import ancestors, sources, walk

CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_attr(node: ast.AST) -> str | None:
    if isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
        return node.attr
    return None


def _under_lock(source: str, node: ast.AST) -> bool:
    for parent, _ in ancestors(source, node):
        if isinstance(parent, (*METHODS, ast.Lambda)):
            return False
        if isinstance(parent, (ast.With, ast.AsyncWith)) and any(
            _self_attr(item.context_expr) == "_lock" for item in parent.items
        ):
            return True
    return False


def _written(node: ast.AST) -> list[str]:
    """The ``self`` attributes an assignment, ``del`` or ``for`` writes."""
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    flat = [t for target in targets for t in getattr(target, "elts", [target])]
    return [attr for t in flat if (attr := _self_attr(t)) is not None]


def unlocked_writes(source: str) -> list[str]:
    """``Class.method: self._x`` for each write outside the lock."""
    found = []
    for cls in walk(source):
        if not isinstance(cls, ast.ClassDef) or "_lock" not in {
            attr for node in ast.walk(cls) for attr in _written(node)
        }:
            continue
        for method in cls.body:
            if not isinstance(method, METHODS) or method.name in CONSTRUCTORS:
                continue
            found += [
                f"{cls.name}.{method.name}: self.{attr}"
                for node in ast.walk(method)
                for attr in _written(node)
                if attr.startswith("_")
                and attr != "_lock"
                and not _under_lock(source, node)
            ]
    return found


def test_locked_classes_write_under_their_lock():
    unlocked = {path: unlocked_writes(text) for path, text in sources().items()}
    assert {path: writes for path, writes in unlocked.items() if writes} == {}


ACCUMULATOR = """\
class Accumulator:
    def __init__(self):
        self._lock, self._total, self._seen = threading.Lock(), 0, []

    def add(self, value):
        with self._lock:
            self._total += value
        self._total += value
        self._seen[:], self.public = [], True
"""


def test_the_lock_checker():
    writes = ["Accumulator.add: self._total", "Accumulator.add: self._seen"]
    assert unlocked_writes(ACCUMULATOR) == writes
    # A class without a lock is out of scope.
    assert unlocked_writes(ACCUMULATOR.replace("self._lock, ", "lock, ")) == []
