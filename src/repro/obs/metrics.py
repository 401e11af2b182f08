"""Dependency-free metrics core: counters, gauges, histograms.

Three instrument types with Prometheus-compatible semantics, a
:class:`MetricsRegistry` to hold them, and a :class:`time_stage`
context manager / decorator for wall-clock stage spans.  Only the
standard library is used, so the package imports anywhere the library
does.

Design constraints (the tentpole's contract):

* **No-op when disabled.**  :data:`NULL_REGISTRY` exposes the same
  surface but every instrument it hands out discards updates, so
  instrumented code paths never branch on "is observability on?" -
  they just call ``counter.inc()`` and the disabled case costs one
  method call.
* **Byte-stable snapshots.**  :meth:`MetricsRegistry.snapshot` renders
  metric families sorted by name and samples sorted by label values,
  with canonical float formatting, so two registries that observed the
  same events serialize identically (the test suite's equivalence
  lever).
* **Thread-safe.**  Each instrument family carries one lock guarding
  its child map and values, so instruments may be updated from any
  thread.

Labelled instruments follow the parent/child model: the registry hands
out the *family* (``registry.counter(name, help, ("pipeline",))``) and
``family.labels("linkA")`` binds a child holding the actual value.
Unlabelled families are their own single child.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections.abc import Callable, Iterator, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "time_stage",
]

#: Default histogram bounds (seconds): sub-millisecond stages up to a
#: minute-long mining run.  Overridable per registry and per histogram.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
)

#: Hard cap on label-value combinations per family - a runaway label
#: (e.g. an interval index used as a label) raises instead of slowly
#: eating the process.
MAX_LABEL_CARDINALITY = 1_000

_METRIC_TYPES = ("counter", "gauge", "histogram")


class MetricsError(ValueError):
    """Misuse of the metrics API (type mismatch, bad labels, ...).

    A ``ValueError`` subclass so the obs core stays importable without
    the rest of the library's error hierarchy.
    """


def _check_name(name: str) -> str:
    if not name or not all(
        c.isalnum() or c in "_:" for c in name
    ) or name[0].isdigit():
        raise MetricsError(f"invalid metric name: {name!r}")
    return name


class _Instrument:
    """Common parent/child plumbing of the three instrument types."""

    metric_type = "abstract"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not label or not label.isidentifier():
                raise MetricsError(f"invalid label name: {label!r}")
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Instrument] = {}
        if not self.labelnames:
            # An unlabelled family is its own single child.
            self._children[()] = self

    def labels(self, *values: object, **kv: object) -> "_Instrument":
        """The child bound to one label-value combination.

        Accepts positional values (in ``labelnames`` order) or
        keywords; repeated calls with the same values return the same
        child.
        """
        if kv:
            if values:
                raise MetricsError(
                    "pass label values positionally or by keyword, not both"
                )
            try:
                values = tuple(kv[name] for name in self.labelnames)
            except KeyError as exc:
                raise MetricsError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(labels: {self.labelnames})"
                ) from exc
            if len(kv) != len(self.labelnames):
                extra = sorted(set(kv) - set(self.labelnames))
                raise MetricsError(
                    f"{self.name}: unknown labels {extra} "
                    f"(labels: {self.labelnames})"
                )
        if len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values {self.labelnames}, got {len(values)}"
            )
        if not self.labelnames:
            return self
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_LABEL_CARDINALITY:
                    raise MetricsError(
                        f"{self.name}: more than {MAX_LABEL_CARDINALITY} "
                        f"label combinations - a label is carrying "
                        f"unbounded values"
                    )
                child = self._make_child()
                self._children[key] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def samples(self) -> Iterator[tuple[tuple[str, ...], "_Instrument"]]:
        """(label values, child) pairs, sorted by label values."""
        with self._lock:
            items = list(self._children.items())
        return iter(sorted(items, key=lambda kv_: kv_[0]))


class Counter(_Instrument):
    """A monotonically increasing value (events, rows, drops)."""

    metric_type = "counter"

    def __init__(self, name="", help="", labelnames=()):
        super().__init__(name or "_child", help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        child = Counter.__new__(Counter)
        child._value = 0.0
        child._lock = threading.Lock()
        return child

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(
                f"counters only go up; inc({amount}) is negative"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down (pending intervals, lag)."""

    metric_type = "gauge"

    def __init__(self, name="", help="", labelnames=()):
        super().__init__(name or "_child", help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        child = Gauge.__new__(Gauge)
        child._value = 0.0
        child._lock = threading.Lock()
        return child

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Cumulative-bucket distribution (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists, and each bucket counts observations ``<=`` its bound.
    """

    metric_type = "histogram"

    def __init__(self, name="", help="", labelnames=(),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name or "_child", help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise MetricsError(
                f"bucket bounds must be finite (+Inf is implicit): {bounds}"
            )
        if list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                f"bucket bounds must be strictly increasing: {bounds}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        child = Histogram.__new__(Histogram)
        child.buckets = self.buckets
        child._counts = [0] * (len(self.buckets) + 1)
        child._sum = 0.0
        child._count = 0
        child._lock = threading.Lock()
        return child

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_counts(self) -> list[int]:
        """Cumulative per-bucket counts, ``+Inf`` last (== count)."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out = []
        for c in counts:
            total += c
            out.append(total)
        return out


_INSTRUMENT_CLASSES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Get-or-create home of every instrument of one run.

    Re-requesting a name returns the existing family; re-requesting it
    with a different type or label set raises - two call sites that
    disagree about a metric are a bug, not two metrics.
    """

    enabled = True

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.default_buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._families: dict[str, _Instrument] = {}

    def _get_or_create(
        self, metric_type: str, name: str, help: str,
        labelnames: Sequence[str], **kwargs: object,
    ) -> _Instrument:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.metric_type != metric_type:
                    raise MetricsError(
                        f"{name} is already registered as a "
                        f"{family.metric_type}, not a {metric_type}"
                    )
                if family.labelnames != labelnames:
                    raise MetricsError(
                        f"{name} is already registered with labels "
                        f"{family.labelnames}, not {labelnames}"
                    )
                return family
            family = _INSTRUMENT_CLASSES[metric_type](
                name, help, labelnames, **kwargs
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        family = self._get_or_create("counter", name, help, labelnames)
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        family = self._get_or_create("gauge", name, help, labelnames)
        assert isinstance(family, Gauge)
        return family

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> Histogram:
        family = self._get_or_create(
            "histogram", name, help, labelnames,
            buckets=self.default_buckets if buckets is None else buckets,
        )
        assert isinstance(family, Histogram)
        return family

    def families(self) -> list[_Instrument]:
        """Every registered family, sorted by name (stable output)."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> dict:
        """Canonical plain-data rendering (byte-stable ordering)."""
        from repro.obs.export import snapshot

        return snapshot(self)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every family."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self)


class _NullInstrument:
    """One object that no-ops the whole instrument surface."""

    metric_type = "null"
    name = "null"
    help = ""
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()
    value = 0.0
    sum = 0.0
    count = 0

    def labels(self, *values: object, **kv: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative_counts(self) -> list[int]:
        return []

    def samples(self):
        return iter(())


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: same surface, zero state, zero cost.

    Every accessor returns the shared no-op instrument, so code
    instrumented against a real registry runs unchanged (and
    byte-identically) when observability is off.
    """

    enabled = False
    default_buckets: tuple[float, ...] = DEFAULT_BUCKETS

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"metrics": []}

    def render_prometheus(self) -> str:
        return ""


#: The shared disabled registry (stateless, safe to share globally).
NULL_REGISTRY = NullRegistry()


class time_stage:
    """Record a wall-clock span into a histogram (or any ``observe``).

    Context manager::

        with time_stage(stage_seconds.labels("mining")):
            result = miner(...)

    or decorator::

        @time_stage(stage_seconds.labels("triage"))
        def build_report(...): ...

    The span is recorded even when the body raises - a failing stage
    still spent the time.  :meth:`cancel` suppresses the pending
    observation (e.g. a timed generator pull that found the stream
    exhausted and did no stage work worth recording).
    """

    __slots__ = ("_target", "_start", "_cancelled")

    def __init__(self, target: Histogram | _NullInstrument):
        self._target = target
        self._start = 0.0
        self._cancelled = False

    def cancel(self) -> None:
        """Drop the span: ``__exit__`` records nothing."""
        self._cancelled = True

    def __enter__(self) -> "time_stage":
        self._start = time.perf_counter()
        self._cancelled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._cancelled:
            self._target.observe(time.perf_counter() - self._start)

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._target.observe(time.perf_counter() - start)

        return wrapper
