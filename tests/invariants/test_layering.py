"""The import graph follows ``LAYERS`` (the package root on top) and
is acyclic.  A module imports same- or lower-layer modules at module
scope; a function-scope import (the escape hatch for an intentional
up-reference) and an ``if TYPE_CHECKING:`` block never run at import
time and are exempt.  Every top-level module and package has a layer,
and imports are absolute.
"""

import ast
import graphlib

import pytest

from tests.invariants.source import parse, sources, terminal_name

LAYERS = [
    "errors obs registry state",
    "flows sketch detection mining anomalies traffic analysis",
    "core",
    "streaming incidents",
    "fleet service federation api cli __main__",
]


def _layer(module: str) -> int | None:
    top = module.split(".")[1:2]
    if not top:
        return len(LAYERS) - 1
    return next((i for i, names in enumerate(LAYERS) if top[0] in names.split()), None)


def _module_scope_imports(tree: ast.Module):
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and terminal_name(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _targets(node: ast.Import | ast.ImportFrom, modules: dict[str, str]) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    submodules = [f"{node.module}.{alias.name}" for alias in node.names]
    return [name if name in modules else node.module for name in submodules]


def layering_violations(modules: dict[str, str]) -> list[str]:
    """Every break of the rules above in ``{dotted name: source}``."""
    found = [f"{name}: in no layer" for name in modules if _layer(name) is None]
    graph: dict[str, set[str]] = {name: set() for name in modules}
    for name, source in modules.items():
        for node in _module_scope_imports(parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.append(f"{name}:{node.lineno}: relative import")
                continue
            for target in _targets(node, modules):
                if target.split(".")[0] != "repro":
                    continue
                if target in modules and target != name:
                    graph[name].add(target)
                if _layer(name) is not None and (_layer(target) or 0) > _layer(name):
                    found.append(
                        f"{name}:{node.lineno}: layer {_layer(name)} imports "
                        f"{target} (layer {_layer(target)}) at module scope"
                    )
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        found.append("import cycle: " + " -> ".join(exc.args[1]))
    return found


def _dotted(path: str) -> str:
    return f"repro/{path[:-3]}".removesuffix("/__init__").replace("/", ".")


def test_imports_respect_the_layers():
    modules = {_dotted(path): text for path, text in sources().items()}
    assert layering_violations(modules) == []


CYCLE = {"repro.cli.a": "import repro.cli.b", "repro.cli.b": "from repro.cli import a"}


@pytest.mark.parametrize(
    "modules, violation",
    [
        (
            {"repro.flows.bad": "import repro.core.stuff", "repro.core.stuff": ""},
            "repro.flows.bad:1: layer 1 imports repro.core.stuff (layer 2)",
        ),
        (
            {"repro.flows.bad": "from repro.core import stuff", "repro.core.stuff": ""},
            "repro.flows.bad:1: layer 1 imports repro.core.stuff (layer 2)",
        ),
        (CYCLE, "import cycle: repro.cli."),
        ({"repro.lab.thing": "x = 1"}, "repro.lab.thing: in no layer"),
        ({"repro.flows.x": "from . import y"}, "repro.flows.x:1: relative import"),
    ],
)
def test_the_layering_checker(modules, violation):
    (found,) = layering_violations(modules)
    assert found.startswith(violation)


def test_lazy_and_type_checking_imports_are_exempt():
    lazy = "if TYPE_CHECKING:\n    import repro.core\ndef f():\n    import repro.core"
    assert layering_violations({"repro.flows.lazy": lazy, "repro.core": ""}) == []
