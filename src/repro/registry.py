"""Pluggable extension registries.

The paper's pipeline (detect -> prefilter -> mine -> triage) is
deliberately modular - Brauckhoff et al. swap detectors and miners in
their evaluation - so every extension point of this implementation
resolves through a named :class:`Registry` instead of a hard-coded
table:

* :data:`miners` - frequent item-set miners
  (``miner(transactions, min_support, maximal_only=True, **kw)``);
* :data:`feature_sets` - named tuples of detector features for
  :class:`~repro.detection.manager.DetectorBank`;
* :data:`readers` - trace readers keyed by file extension
  (``reader(path) -> FlowTable``);
* :data:`sinks` - report sink factories (see :mod:`repro.sinks`);
* :data:`routers` - fleet record routers (see
  :mod:`repro.fleet.routing`).

Third-party packages can plug in without touching ``repro`` internals,
either at runtime::

    from repro.registry import miners

    @miners.register("mymine")
    def mymine(transactions, min_support, maximal_only=True, **kw):
        ...

or declaratively through ``importlib.metadata`` entry points, which are
discovered lazily on first lookup::

    # pyproject.toml of a plugin package
    [project.entry-points."repro.miners"]
    mymine = "myplugin.mining:mymine"

Entry-point groups: ``repro.miners``, ``repro.detectors``,
``repro.readers``, ``repro.sinks``, ``repro.routers``.
"""

from __future__ import annotations

import difflib
import importlib
import importlib.metadata
from collections.abc import Callable, Iterator, Mapping
from typing import Any, TypeVar

from repro.errors import RegistryError

T = TypeVar("T")


class Registry(Mapping):
    """A named table of extension objects with entry-point discovery.

    Implements the read side of the :class:`Mapping` protocol, so
    dict-style access (``miners["apriori"]``, ``name in miners``,
    ``sorted(miners)``) works on every extension point.

    Args:
        kind: human label used in error messages ("miner", ...).
        entry_point_group: ``importlib.metadata`` group scanned lazily
            for third-party entries (``None`` = no discovery).
        bootstrap: dotted module imported before the first lookup so the
            built-ins register themselves even when the registry module
            is imported on its own.
    """

    def __init__(
        self,
        kind: str,
        entry_point_group: str | None = None,
        bootstrap: str | None = None,
    ):
        self.kind = kind
        self.entry_point_group = entry_point_group
        self._bootstrap = bootstrap
        self._bootstrapped = bootstrap is None
        self._entries: dict[str, Any] = {}
        self._entry_points: dict[str, importlib.metadata.EntryPoint] | None = (
            None
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        obj: T | None = None,
        *,
        replace: bool = False,
    ) -> T | Callable[[T], T]:
        """Register ``obj`` under ``name``; usable as a decorator.

        Duplicate names are rejected unless ``replace=True`` - silently
        shadowing an existing extension is almost always a bug.
        """
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{self.kind} name must be a non-empty string: {name!r}"
            )
        if obj is None:
            def decorator(target: T) -> T:
                self.register(name, target, replace=replace)
                return target

            return decorator
        self._ensure_bootstrapped()
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to shadow it"
            )
        self._entries[name] = obj
        return obj

    def unregister(self, name: str) -> None:
        """Remove a runtime registration (entry points are unaffected)."""
        self._ensure_bootstrapped()
        if name not in self._entries:
            raise RegistryError(self._unknown_message(name))
        del self._entries[name]

    def __setitem__(self, name: str, obj: Any) -> None:
        # Legacy dict-style registration keeps dict semantics: a plain
        # assignment always overwrites.
        self.register(name, obj, replace=True)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str, default: Any = ...) -> Any:
        """Resolve ``name``: runtime registrations first, then lazily
        loaded entry points.  Unknown names raise :class:`RegistryError`
        listing the valid choices (with a did-you-mean hint); pass
        ``default`` to suppress that, mirroring ``dict.get``.
        """
        self._ensure_bootstrapped()
        if name in self._entries:
            return self._entries[name]
        entry_point = self._discovered().get(name)
        if entry_point is not None:
            try:
                obj = entry_point.load()
            except Exception as exc:
                raise RegistryError(
                    f"{self.kind} entry point {name!r} "
                    f"({entry_point.value}) failed to load: {exc}"
                ) from exc
            # Cache so each entry point loads once per process.
            self._entries[name] = obj
            return obj
        if default is not ...:
            return default
        raise RegistryError(self._unknown_message(name))

    def names(self) -> list[str]:
        """Sorted names of every resolvable entry (runtime + entry
        points, the latter unloaded)."""
        self._ensure_bootstrapped()
        return sorted(set(self._entries) | set(self._discovered()))

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        self._ensure_bootstrapped()
        return name in self._entries or name in self._discovered()

    def __repr__(self) -> str:
        return (
            f"Registry({self.kind!r}, group={self.entry_point_group!r}, "
            f"entries={self.names()})"
        )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Forget the cached entry-point scan (next lookup re-scans);
        runtime registrations are kept."""
        self._entry_points = None

    def _discovered(self) -> dict[str, importlib.metadata.EntryPoint]:
        if self.entry_point_group is None:
            return {}
        if self._entry_points is None:
            self._entry_points = {
                ep.name: ep
                for ep in importlib.metadata.entry_points(
                    group=self.entry_point_group
                )
            }
        return self._entry_points

    def _ensure_bootstrapped(self) -> None:
        if not self._bootstrapped:
            # Flip first: the bootstrap module registers into this very
            # registry while it imports.
            self._bootstrapped = True
            importlib.import_module(self._bootstrap)

    def _unknown_message(self, name: str) -> str:
        names = self.names()
        hint = ""
        close = difflib.get_close_matches(name, names, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        choices = ", ".join(names) if names else "none registered"
        return (
            f"unknown {self.kind} {name!r}{hint}; "
            f"available: {choices}"
        )


#: Frequent item-set miners: ``miner(transactions, min_support,
#: maximal_only=True, **kw) -> MiningResult``.  Built-ins (apriori,
#: fpgrowth, eclat, son) register in :mod:`repro.mining`.
miners = Registry("miner", "repro.miners", bootstrap="repro.mining")

#: Named detector feature sets: tuples of
#: :class:`~repro.detection.features.Feature` (or duck-compatible
#: custom features).  Built-ins register in
#: :mod:`repro.detection.features`.
feature_sets = Registry(
    "feature set", "repro.detectors", bootstrap="repro.detection.features"
)

#: Trace readers keyed by file extension (".csv", ".npz"):
#: ``reader(path) -> FlowTable``.  Built-ins register in
#: :mod:`repro.flows.io`.
readers = Registry("trace reader", "repro.readers", bootstrap="repro.flows.io")

#: Report sink factories (see :mod:`repro.sinks` for the built-ins and
#: the :class:`~repro.core.pipeline.ReportSink` contract).
sinks = Registry("report sink", "repro.sinks", bootstrap="repro.sinks")

#: Fleet record-router factories:
#: ``factory(arg: str | None, n_pipelines: int) -> router`` where
#: ``router(table) -> ndarray`` maps each row to a pipeline index (see
#: :mod:`repro.fleet.routing` for the built-ins and the spec grammar).
routers = Registry(
    "fleet router", "repro.routers", bootstrap="repro.fleet.routing"
)

__all__ = [
    "Registry", "miners", "feature_sets", "readers", "sinks", "routers",
]
