"""Every catalogued span, event and metric is named by the program.

The catalog in :mod:`repro.obs.instruments` is the operator contract;
RPR002 / RPR007 keep the program from emitting a name the catalog does
not hold.  This is the other direction: a catalog entry that no module
of ``src/repro`` names outside the catalog's own definition is an
orphan (a deleted subsystem's span or metric left behind), and the
catalog must shrink with the code.  Inside ``instruments.py`` only the
:class:`~repro.obs.instruments.PipelineInstruments` bundle counts - it
is where the per-pipeline metrics are resolved by name.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.obs.instruments import CATALOG, EVENTS, SPANS

SRC = Path(repro.__file__).parent
INSTRUMENTS = SRC / "obs" / "instruments.py"


def _strings(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _named() -> set[str]:
    """Every string literal of the package, with ``instruments.py``
    narrowed to the PipelineInstruments bundle."""
    named: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path == INSTRUMENTS:
            for node in tree.body:
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name == "PipelineInstruments"
                ):
                    named |= _strings(node)
        else:
            named |= _strings(tree)
    return named


NAMED = _named()


@pytest.mark.parametrize(
    "kind, name",
    [("SPANS", n) for n in SPANS]
    + [("EVENTS", n) for n in EVENTS]
    + [("CATALOG", n) for n in CATALOG],
)
def test_catalogued_name_is_used(kind, name):
    assert name in NAMED, (
        f"{kind} entry {name!r} is named nowhere in src/repro outside "
        f"its catalog definition: delete it with the code that emitted it"
    )
