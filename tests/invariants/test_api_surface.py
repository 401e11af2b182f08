"""``repro.api.__all__`` resolves and matches the README.

The facade is the compatibility contract: every name ``__all__``
exports is bound and listed once, and the README's fenced block under
the ``<!-- api-surface -->`` marker documents exactly those names.
"""

import re
import types
from pathlib import Path

import pytest

import repro.api

README = Path(__file__).resolve().parents[2] / "README.md"


def surface_drift(module: object, readme: str) -> list[str]:
    exported = list(module.__all__)
    found = [f"{n!r} is not bound" for n in exported if not hasattr(module, n)]
    twice = sorted({n for n in exported if exported.count(n) > 1})
    found += [f"{n!r} is listed twice" for n in twice]
    block = re.search(r"<!-- api-surface -->\n```text\n(.*?)```", readme, re.S)
    if block is None:
        return [*found, "the README has no <!-- api-surface --> block"]
    documented = set(block[1].split())
    found += [f"{n!r} is not in the README" for n in sorted(set(exported) - documented)]
    found += [f"{n!r} is not exported" for n in sorted(documented - set(exported))]
    return found


def test_the_api_surface_is_bound_and_documented():
    assert surface_drift(repro.api, README.read_text()) == []


def test_stable_names_importable():
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), name


BLOCK = "<!-- api-surface -->\n```text\nextract stream\n```\n"


@pytest.mark.parametrize(
    "exported, readme, drift",
    [
        ("extract stream", BLOCK, []),
        ("extract stream x", BLOCK, ["'x' is not bound", "'x' is not in the README"]),
        ("extract stream stream", BLOCK, ["'stream' is listed twice"]),
        ("extract", BLOCK, ["'stream' is not exported"]),
        ("extract stream", "# API", ["the README has no <!-- api-surface --> block"]),
    ],
)
def test_the_surface_checker(exported, readme, drift):
    api = types.SimpleNamespace(__all__=exported.split(), extract=None, stream=None)
    assert surface_drift(api, readme) == drift
