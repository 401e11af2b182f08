"""The initial ruleset: the invariants this codebase keeps breaking."""

from __future__ import annotations

from repro.devtools.rules.api_surface import ApiSurfaceRule
from repro.devtools.rules.envelope import ErrorEnvelopeRule
from repro.devtools.rules.layering import LayeringRule
from repro.devtools.rules.locking import LockDisciplineRule
from repro.devtools.rules.metrics_catalog import MetricCatalogRule
from repro.devtools.rules.span_catalog import SpanCatalogRule

#: Every built-in rule class, in code order.
DEFAULT_RULES = (
    ErrorEnvelopeRule,
    MetricCatalogRule,
    LayeringRule,
    LockDisciplineRule,
    ApiSurfaceRule,
    SpanCatalogRule,
)


def rules_by_code() -> dict[str, type]:
    """``{"RPR001": ErrorEnvelopeRule, ...}`` for select/ignore."""
    return {rule.code: rule for rule in DEFAULT_RULES}


__all__ = [
    "DEFAULT_RULES",
    "ApiSurfaceRule",
    "ErrorEnvelopeRule",
    "LayeringRule",
    "LockDisciplineRule",
    "MetricCatalogRule",
    "SpanCatalogRule",
    "rules_by_code",
]
