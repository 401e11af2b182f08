"""Anomaly injection framework.

The paper evaluates on 36 manually labelled events of seven classes
(Table IV).  Here each class is an :class:`AnomalyInjector` that
synthesizes the event's flows; the scheduler stamps them with a
ground-truth event id so that true/false-positive accounting downstream
is exact by construction rather than inferred by an analyst.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.flows.table import FlowTable

#: Canonical anomaly class names, matching Table IV of the paper.
ANOMALY_CLASSES = (
    "flooding",
    "backscatter",
    "network_experiment",
    "ddos",
    "scanning",
    "spam",
    "unknown",
)


@dataclass(frozen=True, slots=True)
class InjectedEvent:
    """Ground-truth record of one injected anomalous event.

    Attributes:
        event_id: the label stamped on every flow of the event.
        kind: anomaly class (one of :data:`ANOMALY_CLASSES` or ``worm``).
        start / end: time span of the event in trace seconds.
        flow_count: number of flows the event contributed.
        description: human-readable one-liner for reports.
        signature: feature hints ({"dst_port": 7000, ...}) used by
            reports; metrics rely on flow labels, not on this.
    """

    event_id: int
    kind: str
    start: float
    end: float
    flow_count: int
    description: str = ""
    signature: dict[str, int] = field(default_factory=dict)

    def overlaps(self, t0: float, t1: float) -> bool:
        """True when the event is active anywhere inside ``[t0, t1)``."""
        return self.start < t1 and self.end > t0


class AnomalyInjector(abc.ABC):
    """Base class for event-flow generators.

    Concrete injectors are configured at construction time; calling
    :meth:`generate` produces the labelled event flows for a specific
    occurrence of the event.
    """

    #: Anomaly class name; subclasses must override.
    kind: str = "unknown"

    @abc.abstractmethod
    def generate(
        self,
        rng: np.random.Generator,
        start: float,
        duration: float,
        label: int,
    ) -> FlowTable:
        """Synthesize the event's flows.

        Args:
            rng: source of randomness (injected for reproducibility).
            start: event start time in trace seconds.
            duration: event length in seconds.
            label: ground-truth event id to stamp on every flow.

        Returns:
            A :class:`FlowTable` whose ``label`` column equals ``label``.
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line description for ground-truth records."""

    def signature(self) -> dict[str, int]:
        """Characteristic feature values (overridable; default empty)."""
        return {}

    def _check_generate_args(
        self, start: float, duration: float, label: int
    ) -> None:
        if duration <= 0:
            raise ConfigError(f"event duration must be positive: {duration}")
        if label < 0:
            raise ConfigError(f"event label must be >= 0: {label}")
        if start < 0:
            raise ConfigError(f"event start must be >= 0: {start}")


def uniform_times(
    rng: np.random.Generator, n: int, start: float, duration: float
) -> np.ndarray:
    """Start times for ``n`` event flows, uniform over the event span."""
    return rng.uniform(start, start + duration, size=n)
