"""Name lookup over the built-in tables.

The paper's pipeline is closed: five detector features, the union
prefilter and modified Apriori.  The few choices a run config or a flag
can name live as plain dicts next to their built-ins -
:data:`repro.mining.miners`, :data:`repro.detection.features.feature_sets`,
:data:`repro.flows.io.readers` and :data:`repro.fleet.routing.routers` -
and :func:`lookup` resolves a name in one of them with a typed refusal.
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from typing import TypeVar

from repro.errors import RegistryError

T = TypeVar("T")


def lookup(kind: str, table: Mapping[str, T], name: object) -> T:
    """``table[name]``, or :class:`RegistryError` naming ``kind``: a
    non-string name is refused by type, an unknown one with the valid
    choices and a did-you-mean hint."""
    if not isinstance(name, str):
        raise RegistryError(
            f"{kind} name must be a string, got "
            f"{type(name).__name__}: {name!r}"
        )
    if name in table:
        return table[name]
    names = sorted(table)
    close = difflib.get_close_matches(name, names, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise RegistryError(
        f"unknown {kind} {name!r}{hint}; available: {', '.join(names)}"
    )


__all__ = ["lookup"]
