"""Finding model, ``# repro: noqa`` suppressions, and report output."""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass

#: Schema version stamped into the JSON report.
JSON_SCHEMA_VERSION = 1

#: Pseudo-code attached to files the linter could not parse.
PARSE_ERROR_CODE = "RPR000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9,\s]*)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    Ordering is (path, line, col, code), which is also the stable
    report order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def parse_noqa(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: ``{line: codes}`` (1-based lines).

    A value of ``None`` means every code is suppressed on that line
    (bare ``# repro: noqa``); otherwise the frozenset holds the
    uppercase codes listed in ``# repro: noqa[RPR001, RPR004]``.
    """
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            listed = frozenset(
                part.strip().upper()
                for part in codes.split(",")
                if part.strip()
            )
            # An empty bracket list suppresses nothing (likely a typo);
            # record it as an empty set so it stays inert.
            suppressions[lineno] = listed
    return suppressions


def is_suppressed(
    finding: Finding, noqa: Mapping[int, frozenset[str] | None]
) -> bool:
    """Whether ``finding`` is silenced by a noqa comment on its line."""
    if finding.line not in noqa:
        return False
    codes = noqa[finding.line]
    return codes is None or finding.code in codes


def render_text(findings: Iterable[Finding]) -> str:
    """One ``path:line:col: CODE message`` row per finding."""
    return "\n".join(finding.render() for finding in findings)


def render_json_report(
    findings: Iterable[Finding],
    checked_files: int,
    rules: Iterable[str] = (),
) -> str:
    """The machine-readable report (schema held by the devtools tests).

    Keys: ``version``, ``checked_files``, ``rules`` (codes that ran),
    ``findings`` (list of finding objects), and ``counts`` (per-code
    totals).  Output is deterministic: findings sorted, keys sorted.
    """
    ordered = sorted(findings)
    counts: dict[str, int] = {}
    for finding in ordered:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    report = {
        "version": JSON_SCHEMA_VERSION,
        "checked_files": checked_files,
        "rules": sorted(rules),
        "findings": [asdict(finding) for finding in ordered],
        "counts": counts,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
