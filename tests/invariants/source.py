"""The package's sources, each read, parsed and walked once per session."""

import ast
import functools
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


@functools.cache
def sources() -> dict[str, str]:
    """``{path under src/repro: text}`` for every module, in path order."""
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


@functools.cache
def parse(source: str) -> ast.Module:
    return ast.parse(source)


@functools.cache
def walk(source: str) -> tuple[ast.AST, ...]:
    return tuple(ast.walk(parse(source)))


@functools.cache
def _parents(source: str) -> dict[ast.AST, ast.AST]:
    return {
        child: node for node in walk(source) for child in ast.iter_child_nodes(node)
    }


def ancestors(source: str, node: ast.AST):
    """``(parent, child)`` pairs from ``node`` up to the module."""
    parents = _parents(source)
    while node in parents:
        yield parents[node], node
        node = parents[node]


def terminal_name(node: ast.AST) -> str | None:
    """``x`` for ``x`` and for ``a.b.x``."""
    return getattr(node, "id", None) or getattr(node, "attr", None)
