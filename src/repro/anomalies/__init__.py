"""Anomaly injection: the seven Table IV classes plus a multi-stage worm."""

from repro.anomalies.backscatter import BackscatterInjector
from repro.anomalies.base import (
    ANOMALY_CLASSES,
    AnomalyInjector,
    InjectedEvent,
)
from repro.anomalies.ddos import DDoSInjector
from repro.anomalies.experiment import NetworkExperimentInjector
from repro.anomalies.flooding import FloodingInjector
from repro.anomalies.scanning import ScanInjector
from repro.anomalies.schedule import (
    EventSchedule,
    ScheduledOccurrence,
    anomalous_interval_indices,
)
from repro.anomalies.spam import SpamInjector
from repro.anomalies.unknown import UnknownInjector
from repro.anomalies.worm import (
    SASSER_BACKDOOR_PORT,
    SASSER_FTP_PORT,
    SASSER_PAYLOAD_BYTES,
    SASSER_SCAN_PORT,
    SasserLikeWorm,
)

__all__ = [
    "ANOMALY_CLASSES",
    "AnomalyInjector",
    "InjectedEvent",
    "BackscatterInjector",
    "DDoSInjector",
    "NetworkExperimentInjector",
    "FloodingInjector",
    "ScanInjector",
    "SpamInjector",
    "UnknownInjector",
    "SasserLikeWorm",
    "SASSER_SCAN_PORT",
    "SASSER_BACKDOOR_PORT",
    "SASSER_FTP_PORT",
    "SASSER_PAYLOAD_BYTES",
    "EventSchedule",
    "ScheduledOccurrence",
    "anomalous_interval_indices",
]
