"""RPR004 - the import graph respects the layer order and is acyclic.

The architecture stacks four layers over a foundation importable from
anywhere::

    layer 0  errors, obs, registry, state   (foundation: anywhere)
    layer 1  flows, sketch, detection, mining,
             anomalies, traffic, analysis   (domain)
    layer 2  core                           (orchestration)
    layer 3  streaming, incidents, sinks
    layer 4  fleet, service, api, cli, devtools, __main__,
             repro (package root)

A module may import same-layer or lower-layer modules at module scope.
Function-scope (lazy) imports are the sanctioned escape hatch for the
few intentional up-references (e.g. the session building its interval
assembler) and are exempt, as are ``if TYPE_CHECKING:`` blocks - they
never execute at import time and cannot create an import cycle.
Module-level cycles are rejected outright.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.engine import Rule
from repro.devtools.findings import Finding
from repro.devtools.project import ModuleInfo, Project

#: Top-level package/module -> layer index (under the ``repro`` root).
LAYERS: dict[str, int] = {
    "errors": 0, "obs": 0, "registry": 0, "state": 0,
    "flows": 1, "sketch": 1, "detection": 1, "mining": 1,
    "anomalies": 1, "traffic": 1, "analysis": 1,
    "core": 2,
    "streaming": 3, "incidents": 3, "sinks": 3,
    "fleet": 4, "service": 4, "api": 4, "cli": 4, "devtools": 4,
    "federation": 4, "__main__": 4,
}

#: Layer of the ``repro`` package root itself (its ``__init__``
#: re-exports the public surface, so it sits on top).
_ROOT_LAYER = 4


def layer_of(module_name: str) -> int | None:
    """Layer index of a ``repro.*`` dotted name (None = not ours or
    an unmapped future package, which the layer check skips)."""
    segments = module_name.split(".")
    if segments[0] != "repro":
        return None
    if len(segments) == 1:
        return _ROOT_LAYER
    return LAYERS.get(segments[1])


def _in_type_checking_block(module: ModuleInfo, node: ast.AST) -> bool:
    for parent, _child in module.ancestors(node):
        if isinstance(parent, ast.If):
            test = parent.test
            name = (
                test.id if isinstance(test, ast.Name)
                else test.attr if isinstance(test, ast.Attribute)
                else None
            )
            if name == "TYPE_CHECKING":
                return True
    return False


def _module_scope_imports(
    module: ModuleInfo,
) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports that execute at import time: module scope, outside
    functions and ``TYPE_CHECKING`` blocks."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if Rule.enclosing_function(module, node) is not None:
            continue
        if _in_type_checking_block(module, node):
            continue
        yield node


def _resolve_base(module: ModuleInfo, node: ast.ImportFrom) -> str | None:
    """Absolute dotted base of an ImportFrom (handles relative forms)."""
    if node.level == 0:
        return node.module
    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    parts = package.split(".") if package else []
    ascend = node.level - 1
    if ascend > len(parts):
        return None
    if ascend:
        parts = parts[:-ascend]
    if node.module:
        parts.append(node.module)
    return ".".join(parts) if parts else None


def _targets(
    project: Project, module: ModuleInfo, node: ast.Import | ast.ImportFrom
) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    base = _resolve_base(module, node)
    if base is None:
        return
    for alias in node.names:
        candidate = f"{base}.{alias.name}"
        yield candidate if candidate in project.by_name else base


class LayeringRule(Rule):
    code = "RPR004"
    name = "layering"
    summary = (
        "module-scope imports must not reach a higher layer, and the "
        "import graph must be acyclic"
    )

    def finish_project(self, project: Project) -> Iterator[Finding]:
        edges: dict[str, dict[str, ast.stmt]] = {}
        for module in project.modules:
            if not module.name.startswith("repro"):
                continue
            importer_layer = layer_of(module.name)
            for node in _module_scope_imports(module):
                for target in _targets(project, module, node):
                    if not target.startswith("repro"):
                        continue
                    if target != module.name:
                        edges.setdefault(module.name, {}).setdefault(
                            target, node
                        )
                    target_layer = layer_of(target)
                    if (
                        importer_layer is not None
                        and target_layer is not None
                        and target_layer > importer_layer
                    ):
                        yield Finding(
                            path=module.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            code=self.code,
                            message=(
                                f"layering: {module.name} (layer "
                                f"{importer_layer}) must not import "
                                f"{target} (layer {target_layer}) at "
                                f"module scope; import lazily inside "
                                f"the using function if the reference "
                                f"is intentional"
                            ),
                        )
        yield from self._cycles(project, edges)

    @staticmethod
    def _cycles(
        project: Project, edges: dict[str, dict[str, ast.stmt]]
    ) -> Iterator[Finding]:
        """One finding per strongly connected component of size > 1
        (iterative Tarjan; the graph only holds in-project modules)."""
        graph = {
            name: sorted(t for t in targets if t in project.by_name)
            for name, targets in edges.items()
        }
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        components: list[list[str]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(graph.get(root, ())))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(graph.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        for name in sorted(graph):
            if name not in index:
                strongconnect(name)
        for component in components:
            if len(component) < 2:
                continue
            members = sorted(component)
            first = members[0]
            into = next(
                (t for t in members[1:] if t in edges.get(first, {})),
                members[1],
            )
            node = edges[first].get(into)
            module = project.by_name[first]
            yield Finding(
                path=module.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=LayeringRule.code,
                message=(
                    "import cycle between "
                    + " <-> ".join(members)
                    + "; break it with a lazy function-scope import"
                ),
            )
