"""RPR007 - span and event names come from the catalog.

The trace surface is an operator contract just like the metric
surface: dashboards, the Chrome-trace goldens, and the ``explain``
narrative all key on span and event names.  So every
``tracer.span(...)`` outside :mod:`repro.obs` uses a literal name
catalogued in
:data:`repro.obs.instruments.SPANS`, and every ``tracer.event(...)`` /
``span.add_event(...)`` a literal name from
:data:`repro.obs.instruments.EVENTS` - the same discipline RPR002
enforces for metric names.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.engine import Rule
from repro.devtools.findings import Finding
from repro.devtools.project import ModuleInfo
from repro.obs.instruments import EVENTS, SPANS

#: Attribute calls whose literal first argument must be a SPANS name.
_SPAN_METHODS = frozenset({"span"})

#: Attribute calls whose literal first argument must be an EVENTS name.
_EVENT_METHODS = frozenset({"event", "add_event"})

#: Packages allowed to build spans freely (the tracer itself, and the
#: lint fixtures' host package).
_EXEMPT_PREFIXES = ("repro.obs", "repro.devtools")


def _literal_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _first_argument(node: ast.Call, keyword: str) -> ast.AST | None:
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


class SpanCatalogRule(Rule):
    code = "RPR007"
    name = "span-catalog"
    summary = (
        "span/event names must come from obs.instruments.SPANS/EVENTS"
    )

    def start_module(self, module: ModuleInfo) -> None:
        self._exempt = module.name.startswith(_EXEMPT_PREFIXES)

    def visit_Call(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Finding]:
        if self._exempt:
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SPAN_METHODS:
                yield from self._check(
                    module, node, f".{func.attr}()", SPANS, "SPANS"
                )
            elif func.attr in _EVENT_METHODS:
                yield from self._check(
                    module, node, f".{func.attr}()", EVENTS, "EVENTS"
                )

    def _check(
        self,
        module: ModuleInfo,
        node: ast.Call,
        call: str,
        catalog: dict[str, str],
        catalog_name: str,
    ) -> Iterator[Finding]:
        name = _literal_str(_first_argument(node, "name"))
        if name is None:
            yield self._finding(
                module, node,
                f"{call} needs a literal catalogued name "
                f"(see repro.obs.instruments.{catalog_name})",
            )
            return
        if name not in catalog:
            yield self._finding(
                module, node,
                f"{call} name {name!r} is not in the catalog; add it "
                f"to repro.obs.instruments.{catalog_name} first",
            )

    def _finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.rel,
            line=node.lineno,
            col=node.col_offset,
            code=self.code,
            message=message,
        )
