"""Extraction pipeline configuration (paper Table III).

The end-to-end system's knobs, grouped into nested sub-configs that
mirror the pipeline's stages:

* ``detector`` - per-feature histogram detector settings
  (:class:`~repro.detection.detector.DetectorConfig`) plus the
  monitored ``features``;
* ``mining`` - :class:`MiningSettings` (support, prefilter, miner);
* ``streaming`` - :class:`StreamingSettings` (window, lateness,
  retention);
* ``incidents`` - :class:`IncidentSettings` (store path, correlation
  knobs).

:class:`ExtractionConfig` is declarative: it round-trips byte-stably
through :meth:`~ExtractionConfig.to_dict` /
:meth:`~ExtractionConfig.from_dict`, loads from a TOML run config via
:meth:`~ExtractionConfig.from_toml` (the CLI's ``--config run.toml``),
and rejects unknown keys with did-you-mean hints.  The pre-redesign
flat surface - ``ExtractionConfig(min_support=500, miner="eclat")``,
``config.min_support`` - keeps working through kwarg translation and
read-only properties.

The module also carries a machine-readable rendering of Table III
(parameter, description, range used in the evaluation) for the
documentation benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import functools
import math
import os
import types
import typing
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature, resolve_features
from repro.errors import ConfigError, check_count
from repro.mining import miners
from repro.obs.metrics import DEFAULT_BUCKETS, check_buckets
from repro.registry import lookup

#: ``[mining] prefilter_mode`` values: the paper's choice, then the
#: ablation.
PREFILTER_MODES = ("union", "intersection")

#: ``[obs] trace_format`` values (:func:`repro.obs.trace.render_trace`).
TRACE_FORMATS = ("jsonl", "chrome", "text")


@dataclass(frozen=True, slots=True)
class MiningSettings:
    """The mining stage: prefilter mode and frequent item-set miner.

    Attributes:
        min_support: Apriori minimum support ``s`` in flows.
        prefilter_mode: "union" (the paper's choice) or "intersection"
            (the ablation).
        maximal_only: emit only maximal item-sets.
        miner: a :data:`repro.mining.miners` name ("apriori" - the
            paper - "fpgrowth", "eclat" or "son").
    """

    min_support: int = 5_000
    prefilter_mode: str = "union"
    maximal_only: bool = True
    miner: str = "apriori"

    def __post_init__(self) -> None:
        check_count("min_support", self.min_support)
        if self.prefilter_mode not in PREFILTER_MODES:
            raise ConfigError(
                f"prefilter_mode must be one of {PREFILTER_MODES}: "
                f"{self.prefilter_mode}"
            )
        lookup("miner", miners, self.miner)


@dataclass(frozen=True, slots=True)
class StreamingSettings:
    """The streaming path (:mod:`repro.streaming`).

    Attributes:
        window_intervals: mine the prefiltered flows of the last N
            intervals together
            (:class:`~repro.mining.streaming.SlidingWindowMiner`);
            1 (default) mines each alarmed interval on its own,
            byte-identical to the batch path.
        max_delay_seconds: how long an interval stays open for
            out-of-order records before the watermark releases it.
        max_pending_intervals: cap on intervals held open at once
            (``None`` = unbounded); exceeding it force-emits the
            oldest.
        keep_extractions: retain every
            :class:`~repro.core.pipeline.ExtractionResult` for the
            session's lifetime so
            :meth:`~repro.core.session.ExtractionSession.result`
            can return them all - linear in alarm count.  Set False for
            genuinely unbounded noisy pipes: each feed returns its
            extractions and the session keeps none, memory stays flat,
            and summaries use counters (the CLI run verbs' default).
    """

    window_intervals: int = 1
    max_delay_seconds: float = 0.0
    max_pending_intervals: int | None = None
    keep_extractions: bool = True

    def __post_init__(self) -> None:
        check_count("window_intervals", self.window_intervals)
        delay = self.max_delay_seconds
        if not math.isfinite(delay) or delay < 0:
            raise ConfigError(
                f"max_delay_seconds must be finite and >= 0: {delay}"
            )
        if self.max_pending_intervals is not None:
            check_count("max_pending_intervals", self.max_pending_intervals)


@dataclass(frozen=True, slots=True)
class IncidentSettings:
    """The incident layer (:mod:`repro.incidents`).

    Attributes:
        store_path: when set, the extractor opens an
            :class:`~repro.incidents.store.IncidentStore` at this path
            and persists every alarmed interval's extraction report
            there (batch and streaming runs alike).
        jaccard: item-set similarity threshold used by the
            :class:`~repro.incidents.correlate.IncidentCorrelator` to
            merge non-identical item-sets into one incident
            (1.0 = exact matches only).  ``None`` (the default) keeps
            whatever the store already persists (else
            :data:`INCIDENT_JACCARD`); an explicit value is written
            into the store and becomes its new default.
        quiet_gap: intervals of silence after which an active incident
            turns "quiet"; beyond the gap it is "closed" and a
            reappearance starts a new incident.  ``None`` defers to the
            store like ``jaccard``.
    """

    store_path: str | None = None
    jaccard: float | None = None
    quiet_gap: int | None = None

    def __post_init__(self) -> None:
        if self.jaccard is not None and not 0 < self.jaccard <= 1:
            raise ConfigError(
                f"incident jaccard must be in (0, 1]: {self.jaccard}"
            )
        if self.quiet_gap is not None:
            check_count("incident quiet_gap", self.quiet_gap)


#: ``[incidents] jaccard`` / ``quiet_gap`` when neither the run config
#: nor the store sets them (the correlator's defaults).
INCIDENT_JACCARD, INCIDENT_QUIET_GAP = 0.5, 2


@dataclass(frozen=True, slots=True)
class ObsSettings:
    """The observability layer (:mod:`repro.obs`).

    Attributes:
        enabled: when True, the extractor builds a live
            :class:`~repro.obs.metrics.MetricsRegistry` and every layer
            records into it; when False (the default) the shared no-op
            registry is used and instrumentation costs one discarded
            method call per event.  Extraction output is byte-identical
            either way.
        histogram_buckets: upper bucket bounds (seconds) for every
            timing histogram (``+Inf`` is implicit).  Must be strictly
            increasing and finite.
        jsonl_path: when set (and metrics are enabled), the
            extractor's interval step writes one canonical metrics
            snapshot per processed interval to this JSONL file.
        trace_path: when set, span tracing is on: the extractor builds
            a live :class:`~repro.obs.trace.Tracer` and the CLI writes
            the finished trace here (``-`` for stdout).  When unset
            (the default) the shared
            :data:`~repro.obs.trace.NULL_TRACER` no-op is used.
        trace_format: trace exporter - ``jsonl`` (one canonical-JSON
            span per line; the default), ``chrome`` (trace-event JSON
            loadable in Perfetto), or ``text`` (indented span tree).
    """

    enabled: bool = False
    histogram_buckets: tuple[float, ...] = DEFAULT_BUCKETS
    jsonl_path: str | None = None
    trace_path: str | None = None
    trace_format: str | None = None

    def __post_init__(self) -> None:
        if (
            self.trace_format is not None
            and self.trace_format not in TRACE_FORMATS
        ):
            raise ConfigError(
                f"trace_format must be one of "
                f"{', '.join(map(repr, TRACE_FORMATS))}: "
                f"{self.trace_format!r}"
            )
        object.__setattr__(
            self, "histogram_buckets", check_buckets(self.histogram_buckets)
        )


#: Legacy flat constructor kwargs / attribute names -> (group, field).
_FLAT_FIELDS: dict[str, tuple[str, str]] = {
    "min_support": ("mining", "min_support"),
    "prefilter_mode": ("mining", "prefilter_mode"),
    "maximal_only": ("mining", "maximal_only"),
    "miner": ("mining", "miner"),
    "window_intervals": ("streaming", "window_intervals"),
    "max_delay_seconds": ("streaming", "max_delay_seconds"),
    "max_pending_intervals": ("streaming", "max_pending_intervals"),
    "keep_extractions": ("streaming", "keep_extractions"),
    "store_path": ("incidents", "store_path"),
    "incident_jaccard": ("incidents", "jaccard"),
    "incident_quiet_gap": ("incidents", "quiet_gap"),
    "obs_enabled": ("obs", "enabled"),
    "metrics_jsonl_path": ("obs", "jsonl_path"),
    "trace_path": ("obs", "trace_path"),
    "trace_format": ("obs", "trace_format"),
}

#: Every pipeline section -> the dataclass whose fields are its keys.
_SECTION_TYPES: dict[str, type] = {
    "detector": DetectorConfig,
    "mining": MiningSettings,
    "streaming": StreamingSettings,
    "incidents": IncidentSettings,
    "obs": ObsSettings,
}

#: to_dict/from_dict section order (fixed: byte-stable output).
_SECTION_ORDER = tuple(_SECTION_TYPES)


def _close_match_hint(key: str, choices: list[str]) -> str:
    close = difflib.get_close_matches(key, choices, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


@contextlib.contextmanager
def _blame(where: object) -> Iterator[None]:
    """Prefix any :class:`ConfigError` raised inside the block with
    ``where`` (a config file path, a ``[fleet.pipelines.<name>]``
    table); ``None`` leaves the error as it is."""
    try:
        yield
    except ConfigError as exc:
        if where is None:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


#: How the run tables (``[fleet]``/``[service]``/``[federation]``) word
#: a wrong-type refusal; pipeline sections use the bare type names.
_RUN_TABLE_WORDS = {str: "a string", int: "an integer", bool: "a boolean"}


def _check_type(
    section: str,
    key: str,
    value: object,
    annotation,
    run_table: bool = False,
) -> object:
    """Reject values whose type cannot satisfy ``annotation``.

    Dataclasses don't type-check, so a TOML typo like
    ``min_support = "lots"`` would otherwise surface as a baffling
    ``TypeError`` deep inside validation.  Accepted coercion: int ->
    float (TOML writes ``5`` for five seconds).  ``bool`` is never a
    valid int (and vice versa) despite the subclass relationship.
    ``None`` passes where the annotation is Optional: TOML cannot spell
    it, but a Python caller unsets a key that way (``store_path=None``).
    """
    origin = typing.get_origin(annotation)
    if origin is typing.Union or origin is types.UnionType:
        options = typing.get_args(annotation)
        if value is None and type(None) in options:
            return None
        allowed = [a for a in options if a is not type(None)]
    else:
        allowed = [annotation]
    for expected in allowed:
        if expected is bool:
            if isinstance(value, bool):
                return value
        elif expected is int:
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        elif expected is float:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        elif typing.get_origin(expected) in (tuple, list):
            # Parameterized sequence (e.g. ``tuple[float, ...]`` for
            # histogram bounds): accept any list/tuple of numbers; the
            # section dataclass's own validation handles the contents.
            if isinstance(value, (list, tuple)) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value
            ):
                return tuple(float(v) for v in value)
        elif isinstance(value, expected):
            return value
    words = _RUN_TABLE_WORDS if run_table else {}
    names = " or ".join(
        words.get(t) or getattr(t, "__name__", None) or str(t)
        for t in allowed
    )
    raise ConfigError(
        f"[{section}] {key} must be {names}, "
        f"got {type(value).__name__}: {value!r}"
    )


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    """``{field name: resolved annotation}`` of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _check_table(
    section: str,
    raw: object,
    cls: type,
    own: tuple[str, ...] = (),
    run_table: bool = False,
) -> dict[str, object]:
    """Validate one raw config table against the dataclass ``cls``.

    The fields and type hints of ``cls`` *are* the spec: a key that is
    not a field is refused with a did-you-mean hint, a value that
    cannot satisfy its field's annotation is refused by
    :func:`_check_type` (worded for a ``run_table`` or, by default, a
    pipeline section).  Keys named in ``own`` hold non-scalar values
    (``features``, ``sites``, ``pipelines``) that the caller checks
    itself; they pass through untouched.  Every config surface - the
    pipeline sections, ``[fleet.pipelines.<name>]`` overrides and the
    three run tables, and the groups, ``detector`` mapping and flat
    fields given to :class:`ExtractionConfig` - is checked here and
    nowhere else.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"[{section}] must be a table of keys, "
            f"got {type(raw).__name__}"
        )
    spec = _field_types(cls)
    checked: dict[str, object] = {}
    for key, value in raw.items():
        if key in own:
            checked[key] = value
        elif key not in spec:
            known = sorted({*spec, *own})
            raise ConfigError(
                f"[{section}] unknown key {key!r}"
                f"{_close_match_hint(str(key), known)}; "
                f"valid keys: {known}"
            )
        else:
            checked[key] = _check_type(
                section, key, value, spec[key], run_table
            )
    return checked


@dataclass(frozen=True, init=False)
class ExtractionConfig:
    """Everything the :class:`~repro.core.pipeline.AnomalyExtractor`
    needs, grouped by pipeline stage.

    Construct nested, flat (pre-redesign style), or mixed - flat kwargs
    override the group they belong to::

        ExtractionConfig(mining=MiningSettings(min_support=500))
        ExtractionConfig(min_support=500, miner="eclat")   # legacy flat
        ExtractionConfig(mining={"min_support": 500})      # dict groups

    Flat reads (``config.min_support``, ``config.incident_jaccard``,
    ...) are served by read-only properties, so every pre-redesign
    access keeps working.

    Attributes:
        detector: per-feature histogram detector settings (C, m, V, ...).
        features: monitored features (paper: the five of Section II-E);
            accepts a feature-set name ("paper", "all", ...)
            or any mix of names / :class:`Feature` members / custom
            features.
        mining: :class:`MiningSettings`.
        streaming: :class:`StreamingSettings`.
        incidents: :class:`IncidentSettings`.
        obs: :class:`ObsSettings`.
    """

    detector: DetectorConfig
    features: tuple[Feature, ...]
    mining: MiningSettings
    streaming: StreamingSettings
    incidents: IncidentSettings
    obs: ObsSettings

    def __init__(
        self,
        detector: DetectorConfig | Mapping | None = None,
        features: object = None,
        mining: MiningSettings | Mapping | None = None,
        streaming: StreamingSettings | Mapping | None = None,
        incidents: IncidentSettings | Mapping | None = None,
        obs: ObsSettings | Mapping | None = None,
        **flat: object,
    ):
        given = {
            "detector": detector,
            "mining": mining,
            "streaming": streaming,
            "incidents": incidents,
            "obs": obs,
        }
        overrides: dict[str, dict[str, object]] = {}
        for key, value in flat.items():
            target = _FLAT_FIELDS.get(key)
            if target is None:
                choices = sorted(_FLAT_FIELDS) + list(_SECTION_ORDER) + [
                    "features"
                ]
                raise ConfigError(
                    f"unknown config field {key!r}"
                    f"{_close_match_hint(key, choices)}; "
                    f"flat fields: {sorted(_FLAT_FIELDS)}"
                )
            group, attr = target
            overrides.setdefault(group, {})[attr] = value
        for section, cls in _SECTION_TYPES.items():
            value = given[section]
            if value is None:
                value = cls()
            elif isinstance(value, Mapping):
                value = cls(**_check_table(section, value, cls))
            elif not isinstance(value, cls):
                raise ConfigError(
                    f"{section} must be {cls.__name__} or a mapping, "
                    f"got {type(value).__name__}"
                )
            if section in overrides:
                value = dataclasses.replace(
                    value, **_check_table(section, overrides[section], cls)
                )
            object.__setattr__(self, section, value)
        features = resolve_features(features)
        if not features:
            raise ConfigError("need at least one monitored feature")
        object.__setattr__(self, "features", tuple(features))

    # ------------------------------------------------------------------
    # Flat read surface (pre-redesign compatibility)
    # ------------------------------------------------------------------
    @property
    def min_support(self) -> int:
        return self.mining.min_support

    @property
    def prefilter_mode(self) -> str:
        return self.mining.prefilter_mode

    @property
    def maximal_only(self) -> bool:
        return self.mining.maximal_only

    @property
    def miner(self) -> str:
        return self.mining.miner

    @property
    def window_intervals(self) -> int:
        return self.streaming.window_intervals

    @property
    def max_delay_seconds(self) -> float:
        return self.streaming.max_delay_seconds

    @property
    def max_pending_intervals(self) -> int | None:
        return self.streaming.max_pending_intervals

    @property
    def keep_extractions(self) -> bool:
        return self.streaming.keep_extractions

    @property
    def store_path(self) -> str | None:
        return self.incidents.store_path

    @property
    def incident_jaccard(self) -> float | None:
        return self.incidents.jaccard

    @property
    def incident_quiet_gap(self) -> int | None:
        return self.incidents.quiet_gap

    @property
    def obs_enabled(self) -> bool:
        return self.obs.enabled

    @property
    def metrics_jsonl_path(self) -> str | None:
        return self.obs.jsonl_path

    @property
    def trace_path(self) -> str | None:
        return self.obs.trace_path

    @property
    def trace_format(self) -> str | None:
        return self.obs.trace_format

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace(self, **changes: object) -> "ExtractionConfig":
        """A copy with ``changes`` applied - group fields
        (``mining=...``), flat names (``min_support=...``), or both."""
        base: dict[str, object] = {
            "detector": self.detector,
            "features": self.features,
            "mining": self.mining,
            "streaming": self.streaming,
            "incidents": self.incidents,
            "obs": self.obs,
        }
        for key in list(changes):
            if key in base:
                base[key] = changes.pop(key)
        return ExtractionConfig(**base, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Nested plain-data rendering, TOML-compatible (``None``-valued
        knobs are omitted; their absence round-trips to the ``None``
        default).  Key order is fixed, so
        ``json.dumps(c.to_dict(), sort_keys=True)`` is byte-stable
        across round trips."""
        data: dict[str, dict[str, object]] = {}
        detector = {
            f.name: getattr(self.detector, f.name)
            for f in dataclasses.fields(DetectorConfig)
        }
        for feature in self.features:
            # A CustomFeature's transform cannot be expressed in plain
            # data, so a name-only rendering would break the documented
            # from_dict round trip; refuse rather than emit a dict that
            # silently rebuilds a different config.
            if not isinstance(feature, Feature):
                raise ConfigError(
                    f"cannot serialize custom feature "
                    f"{feature.short_name!r}: only built-in features "
                    f"round-trip through to_dict/from_toml (keep "
                    f"custom-feature configs in code)"
                )
        detector["features"] = [f.short_name for f in self.features]
        data["detector"] = detector
        for section in _SECTION_ORDER[1:]:
            group = getattr(self, section)
            data[section] = {
                f.name: getattr(group, f.name)
                for f in dataclasses.fields(group)
                if getattr(group, f.name) is not None
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExtractionConfig":
        """Build a config from nested plain data (:meth:`to_dict`'s
        inverse).  Unknown sections/keys raise :class:`ConfigError`
        with a did-you-mean hint; so do values of the wrong type."""
        return cls(**_section_kwargs("config", data, None))

    @staticmethod
    def _parse_features(value: object) -> tuple[Feature, ...]:
        if isinstance(value, str):
            return resolve_features(value)
        if isinstance(value, (list, tuple)):
            for item in value:
                if not isinstance(item, str):
                    raise ConfigError(
                        f"[detector] features must be feature names, "
                        f"got {type(item).__name__}: {item!r}"
                    )
            return resolve_features(value)
        raise ConfigError(
            f"[detector] features must be a name or list of names, "
            f"got {type(value).__name__}: {value!r}"
        )

    @classmethod
    def from_toml(cls, path: str | os.PathLike[str]) -> "ExtractionConfig":
        """Load a declarative run config (the CLI's ``--config``).

        The file holds the :meth:`to_dict` sections as TOML tables::

            [mining]
            min_support = 500
            miner = "fpgrowth"

            [detector]
            training_intervals = 16
            features = ["srcIP", "dstIP", "dstPort"]

        Missing sections and keys keep their defaults; unknown ones and
        wrong types are rejected as :class:`ConfigError` (the CLI turns
        that into ``error: ...`` with exit code 2, not a traceback).
        """
        data = load_toml_data(path)
        with _blame(path):
            return cls.from_dict(data)


def load_toml_data(path: str | os.PathLike[str]) -> dict:
    """Parse a run-config TOML file into raw section data.

    The file read behind :meth:`ExtractionConfig.from_toml` and
    :meth:`RunConfig.load`.  File and syntax errors surface as
    :class:`ConfigError` carrying the path.
    """
    import tomllib

    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: invalid TOML: {exc}") from exc


#: Run tables a run config may carry beside the pipeline sections ->
#: the :mod:`repro.api` verb that uses each (every verb *accepts* all
#: three; see :class:`RunConfig`).
_RUN_TABLES = {
    "fleet": "open_fleet", "service": "serve", "federation": "federate",
}


def _section_kwargs(
    noun: str, data: object, base: ExtractionConfig | None
) -> dict[str, object]:
    """Checked ``ExtractionConfig`` keyword arguments from nested
    ``{section: {key: value}}`` data.

    The one per-section loop behind :meth:`ExtractionConfig.from_dict`
    (``base`` is ``None``: every section is built fresh, unnamed keys
    take their defaults) and :func:`apply_section_overrides` (only the
    keys present change, the rest keep ``base``'s values).
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{noun} must be a mapping of sections, "
            f"got {type(data).__name__}"
        )
    for key in data:
        if key in _SECTION_ORDER:
            continue
        target = _FLAT_FIELDS.get(str(key))
        if key in _RUN_TABLES:
            hint = (
                f" ([{key}] is a run table, not a pipeline section: "
                f"load the whole file through RunConfig.load / "
                f"api.{_RUN_TABLES[key]} / the CLI's --config)"
            )
        elif target is not None:
            hint = f" (did you mean [{target[0]}] {target[1]}?)"
        else:
            hint = _close_match_hint(str(key), sorted(_SECTION_ORDER))
        raise ConfigError(
            f"unknown config section {key!r}{hint}; "
            f"valid sections: {sorted(_SECTION_ORDER)}"
        )
    kwargs: dict[str, object] = {}
    for section in _SECTION_ORDER:
        raw = data.get(section)
        if raw is None:
            continue
        cls = _SECTION_TYPES[section]
        checked = _check_table(
            section, raw, cls,
            own=("features",) if section == "detector" else (),
        )
        if "features" in checked:
            kwargs["features"] = ExtractionConfig._parse_features(
                checked.pop("features")
            )
        if base is None:
            kwargs[section] = cls(**checked)
        elif checked:
            kwargs[section] = dataclasses.replace(
                getattr(base, section), **checked
            )
    return kwargs


def apply_section_overrides(
    base: ExtractionConfig, data: Mapping
) -> ExtractionConfig:
    """Layer partial ``{section: {key: value}}`` data over ``base``.

    The merge counterpart of :meth:`ExtractionConfig.from_dict` (which
    *resets* unnamed keys to defaults): only the keys present in
    ``data`` change, everything else keeps the base value.  Unknown
    sections/keys and wrong types are rejected exactly like
    ``from_dict``.  This is what gives ``[fleet.pipelines.<name>]``
    tables their semantics - per-pipeline overrides on the run
    config's base pipeline.
    """
    kwargs = _section_kwargs("overrides", data, base)
    return base.replace(**kwargs) if kwargs else base


@dataclass(frozen=True)
class FleetSettings:
    """Fleet-level execution settings (the ``[fleet]`` run-config table).

    A fleet run config is an ordinary :class:`ExtractionConfig` TOML
    (its sections define the *base* pipeline every link starts from)
    plus one ``[fleet]`` table::

        [mining]
        min_support = 300

        [fleet]
        route = "dst_ip%2"
        store_dir = "stores"

        [fleet.pipelines.upstream]

        [fleet.pipelines.peering.mining]
        min_support = 150

    Each ``[fleet.pipelines.<name>]`` table holds per-pipeline section
    overrides layered over the base via
    :func:`apply_section_overrides` (an empty table = "this link runs
    the base config").  Declaration order defines the shard index the
    pipeline answers to.

    Attributes:
        route: routing spec for
            :func:`repro.fleet.routing.resolve_route` (``None`` =
            explicit per-chunk tags only).
        store_dir: directory of per-pipeline incident stores.
        pipelines: ordered ``(name, config)`` pairs.
    """

    route: str | None = None
    store_dir: str | None = None
    pipelines: tuple[tuple[str, ExtractionConfig], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name, config in self.pipelines:
            if not name or not isinstance(name, str):
                raise ConfigError(
                    f"pipeline name must be a non-empty string: {name!r}"
                )
            if name in seen:
                raise ConfigError(f"duplicate pipeline name {name!r}")
            seen.add(name)
            if not isinstance(config, ExtractionConfig):
                raise ConfigError(
                    f"pipeline {name!r} must map to an ExtractionConfig, "
                    f"got {type(config).__name__}"
                )

    def pipeline_configs(self) -> dict[str, ExtractionConfig]:
        """The pipelines as an ordered name -> config mapping."""
        return dict(self.pipelines)

    @classmethod
    def from_data(
        cls, data: Mapping | None, base: ExtractionConfig
    ) -> "FleetSettings":
        """Build settings from a raw ``[fleet]`` table over ``base``.

        ``data`` is the parsed ``[fleet]`` table (or ``None`` for a
        config without one); unknown keys raise :class:`ConfigError`
        with a did-you-mean hint, like every other config surface.
        """
        if data is None:
            return cls()
        checked = _check_table(
            "fleet", data, cls, own=("pipelines",), run_table=True
        )
        raw_pipelines = checked.get("pipelines", {})
        if not isinstance(raw_pipelines, Mapping):
            raise ConfigError(
                f"[fleet.pipelines] must hold one table per pipeline, "
                f"got {type(raw_pipelines).__name__}"
            )
        pipelines = []
        for name, overrides in raw_pipelines.items():
            with _blame(f"[fleet.pipelines.{name}]"):
                pipelines.append(
                    (str(name), apply_section_overrides(base, overrides))
                )
        checked["pipelines"] = tuple(pipelines)
        return cls(**checked)  # type: ignore[arg-type]

    @classmethod
    def from_toml(
        cls, path: str | os.PathLike[str]
    ) -> tuple["FleetSettings", ExtractionConfig]:
        """Load a fleet run config; returns ``(settings, base_config)``.

        The pipeline sections build the base :class:`ExtractionConfig`
        exactly as :meth:`ExtractionConfig.from_toml` would; the file
        is read and validated whole by :meth:`RunConfig.load`.
        """
        run = RunConfig.load(path)
        return run.fleet, run.base


@dataclass(frozen=True)
class ServiceSettings:
    """Daemon-level execution settings (the ``[service]`` run-config
    table).

    A service run config is a fleet run config (base sections plus
    ``[fleet]``) with one more table::

        [service]
        port = 8181
        checkpoint_path = "state/fleet.ckpt"
        checkpoint_every = 4

    Attributes:
        host: HTTP (and TCP ingest) bind address.
        port: HTTP port (0 = ephemeral, for tests).
        ingest_port: optional TCP line-ingest port (``None`` disables
            the socket; 0 = ephemeral).
        checkpoint_path: durable checkpoint file; ``None`` disables
            checkpointing (and with it ``--resume``).
        checkpoint_every: write a checkpoint every N ingest batches
            (plus one final write at graceful shutdown).  Size N to
            one or two measurement intervals of batches: a crash only
            re-replays the batches since the last write (which resume
            absorbs exactly), and two-interval cadence halves the
            share of the ingest wall spent writing checkpoints (the
            ``service_http`` ledger workload in ``benchmarks/perf/``
            times the writes as ``service.checkpoint_s``).
        checkpoint_sync: fsync each checkpoint write.  Off by default -
            the atomic rename alone survives a killed process, which
            is the resume contract; turn it on when the deployment
            must also survive power loss, at a per-write cost the
            ledger does not time (its ``service_http`` workload writes
            without fsync).
        max_body_bytes: largest accepted HTTP request body.
        chunk_rows: TCP ingest batch size (rows buffered per feed).
    """

    host: str = "127.0.0.1"
    port: int = 8181
    ingest_port: int | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = 4
    checkpoint_sync: bool = False
    max_body_bytes: int = 64 * 1024 * 1024
    chunk_rows: int = 4096

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigError("[service] host must be non-empty")
        for key in ("port", "ingest_port"):
            value = getattr(self, key)
            if value is None:
                continue
            whole = isinstance(value, int) and not isinstance(value, bool)
            if not whole or not 0 <= value <= 65535:
                raise ConfigError(
                    f"[service] {key} must be a port in [0, 65535]: "
                    f"{value!r}"
                )
        for key in ("checkpoint_every", "max_body_bytes", "chunk_rows"):
            check_count(f"[service] {key}", getattr(self, key))

    @classmethod
    def from_data(cls, data: Mapping | None) -> "ServiceSettings":
        """Build settings from a raw ``[service]`` table (``None`` for
        a config without one); unknown keys raise :class:`ConfigError`
        with a did-you-mean hint, like every other config surface."""
        if data is None:
            return cls()
        checked = _check_table("service", data, cls, run_table=True)
        return cls(**checked)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FederationSettings:
    """Multi-vantage-point execution settings (the ``[federation]``
    run-config table)::

        [federation]
        sites = ["pop-a", "pop-b"]
        straggler_grace = 2

    Attributes:
        sites: the vantage points whose digests the federator expects
            per interval; empty means federation is not configured.
        route: routing spec used when one combined trace must be split
            into per-site traces (same vocabulary as ``[fleet] route``).
        straggler_grace: intervals of lead the watermark allows before
            an incomplete interval is force-released.
        min_support: support floor for digest-mined item-sets (a voted
            value's exact flow count in the merged interval); its own
            key - ``[mining] min_support`` does *not* apply: that floor
            is sized for one link's prefiltered flows, this one for
            every site's merged interval (no prefilter narrows it).
        store_path: optional incident store the federator appends
            alarmed-interval reports to.
    """

    sites: tuple[str, ...] = ()
    route: str | None = None
    straggler_grace: int = 2
    min_support: int = 5_000
    store_path: str | None = None

    def __post_init__(self) -> None:
        for site in self.sites:
            if not isinstance(site, str) or not site:
                raise ConfigError(
                    f"[federation] site names must be non-empty strings, "
                    f"got {type(site).__name__}: {site!r}"
                )
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError(
                f"[federation] sites must be unique: {list(self.sites)}"
            )
        check_count("[federation] straggler_grace", self.straggler_grace)
        check_count("[federation] min_support", self.min_support)

    @property
    def configured(self) -> bool:
        """True when the table names at least one site."""
        return bool(self.sites)

    @classmethod
    def from_data(cls, data: Mapping | None) -> "FederationSettings":
        """Build settings from a raw ``[federation]`` table (``None``
        for a config without one); unknown keys raise
        :class:`ConfigError` with a did-you-mean hint."""
        if data is None:
            return cls()
        checked = _check_table(
            "federation", data, cls, own=("sites",), run_table=True
        )
        if "sites" in checked:
            sites = checked["sites"]
            if isinstance(sites, str) or not isinstance(sites, Sequence):
                raise ConfigError(
                    f"[federation] sites must be a list of names, "
                    f"got {type(sites).__name__}: {sites!r}"
                )
            checked["sites"] = tuple(sites)
        return cls(**checked)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RunConfig:
    """One whole run config, read once: the base pipeline plus the
    three run tables.

    A deployment is described by one file - the pipeline sections
    (``[detector]``/``[mining]``/...) that build the base
    :class:`ExtractionConfig`, plus ``[fleet]``, ``[service]`` and
    ``[federation]`` - and every verb (``extract``, ``fleet``,
    ``serve``, ``federate`` and the :mod:`repro.api` functions behind
    them) accepts that same file: all four parts are
    validated, each verb uses its own.  :meth:`load` is the only place
    a run config is read, split, validated and path-prefixed.

    Attributes:
        base: the base pipeline config (file, then overrides).
        fleet / service / federation: the run tables (defaults when the
            config carries none).  ``fleet.pipelines`` are layered over
            ``base`` *after* the overrides.
        sections: the raw data as written (``{}`` for a ready config or
            ``None``) - what :meth:`sets` answers from.
        path: the TOML file the config came from, if any.
    """

    base: ExtractionConfig
    fleet: FleetSettings
    service: ServiceSettings
    federation: FederationSettings
    sections: Mapping
    path: str | None = None

    @classmethod
    def load(
        cls,
        config: "ConfigLike",
        layer: Mapping | None = None,
        **overrides: object,
    ) -> "RunConfig":
        """Normalize every accepted config spelling into a run config.

        ``config`` may be a path to a TOML run config, a nested mapping
        of the same shape, a ready :class:`ExtractionConfig`, ``None``
        for defaults, or an already loaded :class:`RunConfig` (nothing
        is re-read; the layers below apply on top of it).  The layering
        order is fixed: the file, then ``layer`` (partial
        ``{section: {key: value}}`` data in the manner of
        :func:`apply_section_overrides`, where a section may also be
        the ``service`` or ``federation`` run table - what explicitly
        typed CLI flags are), then ``overrides`` (flat or grouped
        fields as taken by :meth:`ExtractionConfig.replace` - the
        :mod:`repro.api` keyword arguments), then each
        ``[fleet.pipelines.<name>]`` table on top of the result.
        Refusals of anything the file says carry its path.
        """
        path: str | None = None
        sections: Mapping = {}
        if isinstance(config, RunConfig):
            base, service, federation = (
                config.base, config.service, config.federation
            )
            sections, path = config.sections, config.path
        else:
            if isinstance(config, (str, os.PathLike)):
                path = os.fspath(config)
                sections = load_toml_data(path)
            elif isinstance(config, Mapping):
                sections = dict(config)
            elif config is not None and not isinstance(
                config, ExtractionConfig
            ):
                raise ConfigError(
                    f"config must be an ExtractionConfig, mapping, or "
                    f"TOML path, got {type(config).__name__}"
                )
            with _blame(path):
                base = (
                    config
                    if isinstance(config, ExtractionConfig)
                    else ExtractionConfig.from_dict({
                        key: value for key, value in sections.items()
                        if key not in _RUN_TABLES
                    })
                )
                service = ServiceSettings.from_data(sections.get("service"))
                federation = FederationSettings.from_data(
                    sections.get("federation")
                )
        # Not the file's fault: flag and keyword refusals stay bare.
        if layer:
            given = dict(layer)
            service = dataclasses.replace(service, **_check_table(
                "service", given.pop("service", {}), ServiceSettings,
                run_table=True,
            ))
            federation = dataclasses.replace(federation, **_check_table(
                "federation", given.pop("federation", {}),
                FederationSettings, run_table=True,
            ))
            base = apply_section_overrides(base, given)
        if overrides:
            base = base.replace(**overrides)
        with _blame(path):
            fleet = FleetSettings.from_data(sections.get("fleet"), base)
        return cls(base, fleet, service, federation, sections, path)

    def sets(self, *keys: str) -> bool:
        """Whether the config *as written* sets the key at this path,
        e.g. ``sets("streaming", "keep_extractions")``.  For knobs
        whose CLI default differs from the library default: an explicit
        file value must still win over the CLI's weak default."""
        node: object = self.sections
        for key in keys:
            if not isinstance(node, Mapping) or key not in node:
                return False
            node = node[key]
        return True


#: Every run-config table -> the dataclass whose fields are its keys.
#: ``[detector] features`` is the one key that is not a field there: it
#: builds :attr:`ExtractionConfig.features`.
TABLE_TYPES: dict[str, type] = {
    **_SECTION_TYPES,
    "fleet": FleetSettings,
    "service": ServiceSettings,
    "federation": FederationSettings,
}


#: Every spelling of a run config that :meth:`RunConfig.load` - and so
#: every :mod:`repro.api` function - accepts.
ConfigLike = (
    RunConfig | ExtractionConfig | Mapping | str | os.PathLike[str] | None
)

