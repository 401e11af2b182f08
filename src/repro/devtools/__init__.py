"""``repro.devtools`` - the repository's own static-analysis layer.

``repro-lint`` (console script, or ``python -m repro.devtools``) runs
an AST-based checker over the source tree and enforces the invariants
this codebase has repeatedly broken in review:

========  ===================  ==============================================
code      name                 invariant
========  ===================  ==============================================
RPR001    error-envelope       sqlite operations stay inside the
                               ``IncidentError`` wrapping helper
RPR002    metric-catalog       metric names/label schemas come from
                               ``repro.obs.instruments.CATALOG``; no
                               branching on ``registry.enabled``
RPR004    layering             the import graph respects the layer order
                               and stays acyclic
RPR005    lock-discipline      shared ``self._*`` state in lock-carrying
                               classes mutates under ``with self._lock``
RPR006    api-surface          ``repro.api.__all__`` matches the README
                               and every export resolves
RPR007    span-catalog         span/event names come from
                               ``repro.obs.instruments.SPANS`` /
                               ``EVENTS``
========  ===================  ==============================================

Findings are suppressed per line with ``# repro: noqa[RPR001]`` (or a
bare ``# repro: noqa`` for every code).  The package is stdlib-only
apart from reading the metric catalog, so it imports anywhere the
library does.
"""

from __future__ import annotations

from repro.devtools.engine import LintResult, Rule, lint_paths, run_rules
from repro.devtools.findings import (
    PARSE_ERROR_CODE,
    Finding,
    parse_noqa,
    render_json_report,
    render_text,
)
from repro.devtools.project import ModuleInfo, Project, find_project_root
from repro.devtools.rules import DEFAULT_RULES, rules_by_code

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "PARSE_ERROR_CODE",
    "Project",
    "Rule",
    "find_project_root",
    "lint_paths",
    "parse_noqa",
    "render_json_report",
    "render_text",
    "rules_by_code",
    "run_rules",
]
