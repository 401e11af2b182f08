"""RPR003 - extension lookups go through the registry API.

The ISSUE 4 migration put every extension point behind a named
:class:`repro.registry.Registry`, whose ``get`` raises a
:class:`~repro.errors.RegistryError` listing the valid choices with a
did-you-mean hint.  Direct subscripting (``miners[name]``) still works
through the ``Mapping`` shim but bypasses nothing visibly - so
new code keeps sneaking it in, and a future registry change (async
loading, per-call context) would break those sites silently.  Outside
``repro/registry.py`` every lookup must use ``.get(...)``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.engine import Rule
from repro.devtools.findings import Finding
from repro.devtools.project import ModuleInfo

#: The extension-registry objects.
REGISTRY_NAMES = frozenset(
    {"miners", "feature_sets", "readers", "sinks", "routers"}
)

_EXEMPT_MODULES = ("repro.registry",)
_EXEMPT_PREFIXES = ("repro.devtools",)


def _subscripted_registry(node: ast.Subscript) -> str | None:
    value = node.value
    if isinstance(value, ast.Name) and value.id in REGISTRY_NAMES:
        return value.id
    if isinstance(value, ast.Attribute) and value.attr in REGISTRY_NAMES:
        return value.attr
    return None


class RegistryDisciplineRule(Rule):
    code = "RPR003"
    name = "registry-discipline"
    summary = (
        "no direct indexing of extension registries; use Registry.get"
    )

    def start_module(self, module: ModuleInfo) -> None:
        self._exempt = module.name in _EXEMPT_MODULES or (
            module.name.startswith(_EXEMPT_PREFIXES)
        )

    def visit_Subscript(
        self, module: ModuleInfo, node: ast.Subscript
    ) -> Iterator[Finding]:
        if self._exempt:
            return
        name = _subscripted_registry(node)
        if name is None:
            return
        yield Finding(
            path=module.rel,
            line=node.lineno,
            col=node.col_offset,
            code=self.code,
            message=(
                f"direct registry indexing {name}[...] bypasses the "
                f"registry API; use {name}.get(...) (raises "
                f"RegistryError with the valid choices)"
            ),
        )
